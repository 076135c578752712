"""The package's public names: one entry per job, each of them bound."""

import types

import ebshrink

# names the package exported before its EM steps became test helpers
WITHDRAWN = (
    "DegenerateResponsibilities",
    "e_step",
    "init_params",
    "m_step_complete",
    "m_step_masked",
    "pmse",
)


def test_all_is_exactly_the_public_bindings():
    for name in ebshrink.__all__:
        getattr(ebshrink, name)
    public = {
        name for name, value in vars(ebshrink).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ebshrink.__all__) == sorted(public)
    assert [name for name in WITHDRAWN if hasattr(ebshrink, name)] == []
