"""The three benchmark workloads.

Each workload is a closed loop with a single caller.  ``inputs`` makes every
input from the seed, ``warm`` makes one untimed call, ``op`` is the timed
public call (or call pair), and ``check``/``quality`` look at the outputs
outside the timed region.  The
first ``fixed_ops`` ops of a run are always completed: they are the set the
quality metrics and the traced phase use, so those repeat exactly at a seed.

Why these three (spec.json has the full reasoning):

* sim_masked -- ``run_replications`` on setting 3 through the library's own
  worker pool: the masked generalized M-step and its mixture-kernel probes
  dominate, and EM iteration counts have a heavy tail.
* fit_tall -- sequential ``build_design`` + ``fit`` on setting-4 panels: few
  EM iterations, so the per-tissue Cholesky/eigh work in ``_SuffStats`` and
  the BLAS thread pools dominate.  Sequential, so that pool interleaving
  adds no noise on top of BLAS oversubscription.
* cli_wide -- in-process ``fit`` then ``predict`` through ``cli_main`` on a
  complete m=2000 panel: closed-form M-step, no objective calls; TSV and
  JSON I/O and the per-tissue posterior summary dominate.  M-step and
  kernel changes should leave it unchanged.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

import ebshrink
import ebshrink.cli
import ebshrink.em
import ebshrink.fileio
import ebshrink.linalg
import ebshrink.simulate


# warm-up inputs do not depend on the run seed, so that a heavy-tailed
# warm-up fit does not move setup_s from seed to seed
WARM_SEED = 7


def child_seed(seed, *parts):
    """Independent 32-bit seed for one input, derived from the run seed."""
    seq = np.random.SeedSequence([int(seed), *[int(q) for q in parts]])
    return int(seq.generate_state(1)[0])


def auc_midrank(scores, labels):
    """Mann-Whitney AUC with midranks; NaN when a class is empty."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ols_masked(x, y, mask):
    """Per-column least squares on each column's observed rows, (p, m)."""
    out = np.empty((x.shape[1], y.shape[1]))
    for t in range(y.shape[1]):
        rows = mask[:, t]
        out[:, t] = np.linalg.lstsq(x[rows], y[rows, t], rcond=None)[0]
    return out


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


@dataclass
class State:
    seed: int
    digest: str = ""
    data: dict = field(default_factory=dict)
    tracer: object = None  # set by the harness during the traced phase


class SimMasked:
    """``run_replications`` for setting 3 with the default worker pool.

    An op is one replication; the public call is one ``run_replications``
    of ``REPS`` replications, so latencies are per call.  The scenario is
    fixed, as in the acceptance gate: its seed is ``SCENARIO_SEED``, not the
    run seed.  EM iteration counts run from about 10 to over 100 per fit, so
    a replication set drawn afresh from every run seed moved throughput by
    about 20% from seed to seed; a fixed set leaves only the machine's
    noise.

    ``REPS`` is 50, not the CLI's default of 100, so that a call fits in a
    run.  The pool's straggler cost at the end of a call shrinks as REPS
    grows; measured over 100 replications on 2 cores, utilization was 0.945
    at REPS=4, 0.968 at 20, 0.997 at 50 and 0.996 at 100.
    """

    name = "sim_masked"
    seeded = False
    SETTING = dict(rho=0.0, beta_s=0.5)
    SCENARIO_SEED = 20221128
    REPS = 50
    fixed_ops = 1
    cycle = 1

    def inputs(self, seed):
        state = State(seed=seed)
        config = ebshrink.SimConfig.for_setting(3, seed=self.SCENARIO_SEED, **self.SETTING)
        state.data["config"] = config
        state.digest = _digest(json.dumps([config.seed, self.REPS]).encode())
        return state

    def warm(self, state):
        warm = ebshrink.SimConfig.for_setting(3, seed=child_seed(WARM_SEED, 3), **self.SETTING)
        ebshrink.simulate.run_replications(warm, 2)

    def prepare(self, state, i):
        return state.data["config"]

    def op(self, state, config):
        return ebshrink.simulate.run_replications(config, self.REPS)

    def tally(self, output):
        """(replications attempted, replications failed) of one call."""
        return self.REPS, output.rows[0].failed

    def check(self, state, i, output, problems):
        row = output.rows[0]
        values = (row.mse_ols, row.mse_proposed, row.auc)
        if not all(np.isfinite(v) for v in values) or not 0.0 <= row.auc <= 1.0:
            problems.append(f"op {i}: non-finite or out-of-range report {values}")

    def keep(self, output):
        row = output.rows[0]
        return (row.mse_ols, row.mse_proposed, row.auc, row.reps - row.failed)

    def quality(self, state, kept):
        mse_ols = sum(k[0] * k[3] for k in kept)
        mse_post = sum(k[1] * k[3] for k in kept)
        aucs = [k[2] for k in kept]
        return {"mse_ratio": mse_post / mse_ols, "auc": float(np.mean(aucs))}

    def close(self, state):
        state.data.clear()


class FitTall:
    """Sequential ``build_design`` + ``fit`` on pre-generated setting-4 panels."""

    name = "fit_tall"
    seeded = True
    SETTING = dict(rho=0.0, beta_s=0.5)
    POOL = 64
    fixed_ops = 24
    cycle = 1

    def inputs(self, seed):
        state = State(seed=seed)
        panels = [
            ebshrink.simulate_setting(
                ebshrink.SimConfig.for_setting(4, seed=child_seed(seed, 2, j), **self.SETTING)
            )
            for j in range(self.POOL)
        ]
        state.data["panels"] = panels
        state.digest = _digest(
            *[c for d in panels for c in (d.x, np.nan_to_num(d.panel.y), d.panel.mask)]
        )
        return state

    def warm(self, state):
        warm = ebshrink.simulate_setting(
            ebshrink.SimConfig.for_setting(4, seed=child_seed(WARM_SEED, 4), **self.SETTING)
        )
        ebshrink.em.fit(ebshrink.linalg.build_design(warm.x), warm.panel)

    def prepare(self, state, i):
        return state.data["panels"][i % self.POOL]

    def op(self, state, data):
        design = ebshrink.linalg.build_design(data.x)
        return ebshrink.em.fit(design, data.panel)

    def tally(self, output):
        return 1, 0

    def check(self, state, i, output, problems):
        pass

    def keep(self, output):
        post = np.column_stack([tp.post_mean for tp in output.posteriors])
        return post, np.array([tp.h for tp in output.posteriors])

    def quality(self, state, kept):
        num = den = 0.0
        aucs = []
        for i, (post, h) in enumerate(kept):
            data = state.data["panels"][i % self.POOL]
            y = np.where(data.panel.mask, data.panel.y, 0.0)
            ols = ols_masked(data.x, y, data.panel.mask)
            num += float(np.mean((post - data.true_beta) ** 2))
            den += float(np.mean((ols - data.true_beta) ** 2))
            aucs.append(auc_midrank(h, data.true_active))
        return {"mse_ratio": num / den, "auc": float(np.nanmean(aucs))}

    def close(self, state):
        state.data.clear()


class CliWide:
    """``cli_main`` fit then predict on a complete n=200, p=30, m=2000 panel."""

    name = "cli_wide"
    seeded = True
    N, M, N_NEW = 200, 2000, 200
    fixed_ops = 6
    cycle = 1

    def __init__(self, work_root):
        self.work_root = work_root

    def inputs(self, seed):
        state = State(seed=seed)
        data = ebshrink.simulate_setting(
            ebshrink.SimConfig.for_setting(1, seed=child_seed(seed, 2), n=self.N, m=self.M)
        )
        x_new = np.random.default_rng(child_seed(seed, 3)).standard_normal((self.N_NEW, data.x.shape[1]))
        os.makedirs(self.work_root, exist_ok=True)
        work = tempfile.mkdtemp(prefix="cli_wide-", dir=self.work_root)
        paths = {k: os.path.join(work, k) for k in ("x.tsv", "y.tsv", "xnew.tsv", "fit.json", "pred.tsv")}
        covs = [f"v{j + 1}" for j in range(data.x.shape[1])]
        write = ebshrink.fileio.write_matrix_tsv
        write(paths["x.tsv"], data.x, col_ids=covs, row_ids=[f"r{i + 1}" for i in range(self.N)])
        write(
            paths["y.tsv"],
            data.panel.y,
            col_ids=list(data.panel.tissue_names),
            row_ids=[f"r{i + 1}" for i in range(self.N)],
        )
        write(paths["xnew.tsv"], x_new, col_ids=covs, row_ids=[f"n{i + 1}" for i in range(self.N_NEW)])
        state.data.update(work=work, paths=paths, truth=data, x_new=x_new)
        with open(paths["x.tsv"], "rb") as a, open(paths["y.tsv"], "rb") as b, open(paths["xnew.tsv"], "rb") as c:
            state.digest = _digest(a.read(), b.read(), c.read())
        return state

    def warm(self, state):
        """One round; its outputs are the reference later rounds must match."""
        paths = state.data["paths"]
        problems = []
        codes = self.op(state, None)
        if codes != (0, 0):
            problems.append(f"warm-up round: exit codes {codes}")
        else:
            state.data["fit_bytes"] = self._read(paths["fit.json"])
            state.data["pred_bytes"] = self._read(paths["pred.tsv"])
            self._check_prediction(state, problems)
        state.data["setup_problems"] = problems

    @staticmethod
    def _read(path):
        with open(path, "rb") as fh:
            return fh.read()

    def prepare(self, state, i):
        return None

    def op(self, state, _unused):
        p = state.data["paths"]
        fit_argv = ["fit", "--x", p["x.tsv"], "--y", p["y.tsv"], "--out", p["fit.json"]]
        predict_argv = ["predict", "--x", p["xnew.tsv"], "--fit", p["fit.json"], "--out", p["pred.tsv"]]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for span, argv in (("cli.fit", fit_argv), ("cli.predict", predict_argv)):
                frame = state.tracer.begin(span) if state.tracer is not None else None
                try:
                    codes.append(ebshrink.cli.cli_main(argv))
                finally:
                    if frame is not None:
                        state.tracer.end(frame)
        return tuple(codes)

    def tally(self, output):
        return 1, int(output != (0, 0))

    def check(self, state, i, output, problems):
        p = state.data["paths"]
        if output != (0, 0):
            problems.append(f"op {i}: exit codes {output}")
            return
        if self._read(p["fit.json"]) != state.data.get("fit_bytes"):
            problems.append(f"op {i}: fit.json differs from the first round")
        if self._read(p["pred.tsv"]) != state.data.get("pred_bytes"):
            problems.append(f"op {i}: predictions differ from the first round")

    def _check_prediction(self, state, problems):
        """predict output must equal X_new @ post_mean read back from the JSON."""
        p = state.data["paths"]
        with open(p["fit.json"], encoding="utf-8") as fh:
            doc = json.load(fh)
        coefs = np.column_stack([np.asarray(e["post_mean"], dtype=np.float64) for e in doc["posteriors"]])
        expected = state.data["x_new"] @ coefs
        with open(p["pred.tsv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split("\t")
        got = np.array([[float(c) for c in ln.split("\t")[1:]] for ln in lines[1:]])
        names = [e["tissue"] for e in doc["posteriors"]]
        if header[1:] != names or got.shape != expected.shape:
            problems.append("predictions: header or shape does not match the fit")
        elif not np.allclose(got, expected, rtol=1e-12, atol=1e-12 * float(np.abs(expected).max())):
            problems.append("predictions differ from X_new @ post_mean")
        state.data["fit_doc"] = doc

    def keep(self, output):
        return None

    def quality(self, state, kept):
        doc = state.data["fit_doc"]
        truth = state.data["truth"]
        post = np.column_stack([np.asarray(e["post_mean"]) for e in doc["posteriors"]])
        h = np.array([e["h"] for e in doc["posteriors"]])
        ols = np.linalg.lstsq(truth.x, truth.panel.y, rcond=None)[0]
        mse_post = float(np.mean((post - truth.true_beta) ** 2))
        mse_ols = float(np.mean((ols - truth.true_beta) ** 2))
        return {"mse_ratio": mse_post / mse_ols, "auc": auc_midrank(h, truth.true_active)}

    def close(self, state):
        work = state.data.get("work")
        if work:
            shutil.rmtree(work, ignore_errors=True)
        state.data.clear()


def make(name, work_root):
    """The workload called ``name``; cli_wide writes its files under work_root."""
    if name == "cli_wide":
        return CliWide(work_root)
    return {"sim_masked": SimMasked, "fit_tall": FitTall}[name]()


NAMES = ("sim_masked", "fit_tall", "cli_wide")
