"""The benchmark's workloads: how each builds its inputs, runs one batch and checks its outputs.

Every workload is a closed loop with one caller: the runner issues the
batches of a round back to back, each after the previous one returned.
A round is the same list of batches every time, so repeated rounds must
give identical outputs. Inputs come from the workload seed alone.

A workload has ``setup(rep)`` (build the inputs; run several times),
``batches`` (one round), ``run(round_no, batch)`` (one operation),
``size(batch)`` (query points in it), ``key(output)`` (a digest that
repeated rounds must reproduce) and ``check(outputs)``, which checks one
round's outputs and returns the problems found and what it observed:
counters read on the reference sample and the values behind each claim.
"""

from __future__ import annotations

import csv
import hashlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from angleid import analysis, angle_id, cli, neighbors, synth
from angleid.core import ESTIMATOR_TAGS, DataMatrix


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _check_neighbors(where, data: DataMatrix, query: int, k: int, counters) -> tuple[list, object]:
    """The package's knn against brute force; returns problems and the reference."""
    want = reference.knn(data.points, query, k)
    counters["duplicates_excluded"] += want.duplicates_excluded
    counters["kth_ties"] += want.kth_ties
    got = neighbors.knn(data, query, k)
    return reference.compare_neighbors(where, got.indices, got.distances, want), want


def _new_counters() -> dict:
    return {"duplicates_excluded": 0, "kth_ties": 0}


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


class TableCubes:
    """``estimate_table`` on criterion 11's nested hypercubes (n = 25 000, D = 5)."""

    name = "table-cubes"
    K = 100
    QUERIES = 1000  # per round, criterion 11's sample size
    BATCH = 100
    CHECKED = 20  # queries compared with the reference per run

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed

    def setup(self, rep: int) -> None:
        gen = synth.generate(synth.GeneratorSpec(
            "nested_cubes", seed=self.seed, params={"max_dim": 5, "n_per_cube": 5000}))
        queries = _rng(self.seed, 1).choice(gen.matrix.n, self.QUERIES, replace=False)
        self.data, self.labels = gen.matrix, gen.labels
        self.batches = [sorted(int(q) for q in queries[i:i + self.BATCH])
                        for i in range(0, self.QUERIES, self.BATCH)]

    def size(self, batch) -> int:
        return len(batch)

    def run(self, round_no: int, batch):
        return angle_id.estimate_table(self.data, self.K, estimators=ESTIMATOR_TAGS,
                                       queries=batch, with_diagnostics=True, threads=1)

    def key(self, table) -> bytes:
        rows = [(i, [(e.value, sorted(e.flags)) for e in ests.values()]) for i, ests in table.rows]
        return _digest(repr((rows, table.mean_cosines)).encode())

    def check(self, outs):
        problems, counters = [], _new_counters()
        for batch, table in zip(self.batches, outs):
            if list(table.indices) != batch or table.estimators != ESTIMATOR_TAGS:
                problems.append("table rows or columns do not match the batch")

        # Criterion 11: ABID lands within 0.5 of the cube dimension more often than MLE.
        rows = {i: ests for table in outs for i, ests in table.rows}
        idx = np.array(sorted(rows))
        frac = {t: float(np.mean(np.abs(np.array([rows[i][t].value for i in idx])
                                        - self.labels[idx]) <= 0.5)) for t in ("abid", "mle")}
        counters.update({f"criterion11.{t}_share": v for t, v in frac.items()})
        if not frac["abid"] > frac["mle"]:
            problems.append(f"criterion 11: abid share {frac['abid']:.3f} <= mle share {frac['mle']:.3f}")

        cosines = {i: mc for table in outs for i, mc in zip(table.indices, table.mean_cosines)}
        sample = _rng(self.seed, 2).choice(idx, self.CHECKED, replace=False)
        for q in (int(q) for q in sample):
            where = f"query {q}"
            found, want = _check_neighbors(where, self.data, q, self.K, counters)
            ref, ref_mc = reference.estimates(self.data.points, q, want, ESTIMATOR_TAGS)
            got = {t: (e.value, e.flags) for t, e in rows[q].items()}
            problems += found + reference.compare_estimates(where, got, ref)
            if abs(cosines[q] - ref_mc) > reference.MEAN_COSINE_ATOL:
                problems.append(f"{where}: mean cosine {cosines[q]!r}, reference {ref_mc!r}")
        return problems, counters


class TrailsEveryK:
    """``trails`` for abid and mle at every k from 10 to 400 on the 6-D jittered lattice."""

    name = "trails-everyk"
    K_VALUES = range(10, 401)
    TAGS = ("abid", "mle")
    POINTS = 40  # per round
    BATCH = 10
    CHECKED = 3  # points whose whole trails are compared with the reference

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed

    def setup(self, rep: int) -> None:
        gen = synth.generate(synth.GeneratorSpec(
            "lattice", seed=self.seed, params={"dims": 6}))
        points = _rng(self.seed, 1).choice(gen.matrix.n, self.POINTS, replace=False)
        self.data = gen.matrix
        self.batches = [sorted(int(p) for p in points[i:i + self.BATCH])
                        for i in range(0, self.POINTS, self.BATCH)]

    def size(self, batch) -> int:
        return len(batch)

    def run(self, round_no: int, batch):
        return {tag: analysis.trails(self.data, self.K_VALUES, tag, point_subset=batch)
                for tag in self.TAGS}

    def key(self, out) -> bytes:
        return _digest(*(out[tag].estimates.tobytes() for tag in self.TAGS))

    def check(self, outs):
        problems, counters = [], _new_counters()
        ks = np.array(self.K_VALUES)
        for batch, out in zip(self.batches, outs):
            for tag, tm in out.items():
                if list(tm.point_indices) != batch or tm.k_values != tuple(ks):
                    problems.append(f"{tag} trails do not match the batch")
            # The ABID bound: never above k.
            ratio = float(np.max(out["abid"].estimates / ks))
            counters["abid_over_k_max"] = max(counters.get("abid_over_k_max", 0.0), ratio)
            if np.any(out["abid"].estimates > ks):
                problems.append(f"abid exceeds k on points {batch}")

        rows = {(tag, p): out[tag].estimates[j]
                for out in outs for tag in self.TAGS
                for j, p in enumerate(out[tag].point_indices)}
        points = sorted({p for _, p in rows})
        for p in (int(p) for p in _rng(self.seed, 2).choice(points, self.CHECKED, replace=False)):
            problems += _check_neighbors(f"point {p}", self.data, p, ks[-1], counters)[0]
            for tag in self.TAGS:
                want = reference.trail(self.data.points, p, ks, tag)
                got = rows[(tag, p)]
                bad = [int(k) for k, g, w in zip(ks, got, want) if not reference.close(g, w)]
                if bad:
                    problems.append(f"point {p}: {tag} trail differs from the reference at k={bad[:5]}")
        return problems, counters


class CliLattice:
    """The CLI on the 8-D jittered lattice (65 536 points), one process per command.

    Set-up writes the lattice with ``generate``; each batch is one
    ``estimate`` and one ``histogram`` on a seeded subsample of queries.
    With ``in_process`` the commands run through ``cli.main`` in this
    process instead (the traced run).
    """

    name = "cli-lattice"
    K = 500
    POINTS = 300
    PIPELINES = 2  # per round, each with its own subsample seed
    BIN = 0.25
    CHECKED = 8  # rows per pipeline compared with the reference

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.datasets: list[Path] = []
        subsample = _rng(seed, 1).integers(0, 2**31, self.PIPELINES)
        self.batches = [int(s) for s in subsample]

    def _cli(self, *args) -> None:
        if self.in_process:
            code = cli.main(list(args))
        else:
            code = subprocess.run([sys.executable, "-m", "angleid", *args],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        if code != 0:
            raise RuntimeError(f"angleid {args[0]} exited with {code}")

    def startup_times(self, reps: int = 3) -> list[float]:
        """Wall time of ``angleid --help`` in a fresh process: interpreter start and imports."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "angleid", "--help"],
                           stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - t0)
        return times

    def setup(self, rep: int) -> None:
        path = self.workdir / f"lattice-{rep}.csv"
        self._cli("generate", "--shape", "lattice", "--dims", "8",
                  "--seed", str(self.seed), "-o", str(path))
        self.datasets.append(path)

    def size(self, batch) -> int:
        return self.POINTS

    def _outputs(self, round_no: int, batch) -> tuple[Path, Path]:
        i = self.batches.index(batch)
        return (self.workdir / f"est-{round_no}-{i}.csv", self.workdir / f"hist-{round_no}-{i}.csv")

    def run(self, round_no: int, batch):
        est, hist = self._outputs(round_no, batch)
        self._cli("estimate", "--input", str(self.datasets[0]), "--k", str(self.K),
                  "--estimators", "abid,mle", "--with-diagnostics",
                  "--points", str(self.POINTS), "--subsample-seed", str(batch),
                  "--threads", "2", "-o", str(est))
        self._cli("histogram", "--input", str(est), "--column", "abid",
                  "--bin-width", str(self.BIN), "-o", str(hist))
        return est, hist

    def key(self, out) -> bytes:
        return _digest(*(path.read_bytes() for path in out))

    def check(self, outs):
        problems, counters = [], _new_counters()
        first = self.datasets[0].read_bytes()
        if any(p.read_bytes() != first for p in self.datasets[1:]):
            problems.append("generate: repeated identical invocations wrote different bytes")

        points = np.loadtxt(self.datasets[0], delimiter=",", ndmin=2)
        data = DataMatrix(points)
        for i, (est, hist) in enumerate(outs):
            problems += self._check_pipeline(f"pipeline {i}", data, est, hist, i, counters)
        return problems, counters

    def _check_pipeline(self, where, data, est: Path, hist: Path, i: int, counters) -> list[str]:
        with est.open(newline="") as fh:
            table = list(csv.reader(fh))
        if table[0] != ["index", "abid", "mle", "mean_cosine", "flags"]:
            return [f"{where}: estimate header {table[0]}"]
        rows = table[1:]
        idx = [int(r[0]) for r in rows]
        if len(rows) != self.POINTS or idx != sorted(set(idx)) or not 0 <= idx[0] <= idx[-1] < data.n:
            return [f"{where}: estimate rows are not {self.POINTS} distinct sorted query indices"]
        values = {t: np.array([float(r[c]) for r in rows]) for c, t in ((1, "abid"), (2, "mle"))}

        problems = []
        with hist.open(newline="") as fh:
            hist_rows = list(csv.reader(fh))
        counted = {int(round(float(b) / self.BIN)): int(c) for b, c in hist_rows[1:]}
        if hist_rows[0] != ["bin_left", "count"] or counted != _count(values["abid"], self.BIN):
            problems.append(f"{where}: histogram counts differ from a count of the abid column")

        # Criterion 9: the ABID mode lies in [7, 9] and sits closer to 8 than the MLE mode.
        modes = {t: _mode_center(_count(v, self.BIN), self.BIN) for t, v in values.items()}
        counters.update({f"criterion9.pipeline{i}.{t}_mode": v for t, v in modes.items()})
        if not (7.0 <= modes["abid"] <= 9.0 and abs(modes["mle"] - 8) > abs(modes["abid"] - 8)):
            problems.append(f"criterion 9: modes abid {modes['abid']}, mle {modes['mle']}")

        for j in (int(j) for j in _rng(self.seed, 10 + i).choice(len(rows), self.CHECKED, replace=False)):
            q, row = idx[j], rows[j]
            found, want = _check_neighbors(f"{where} query {q}", data, q, self.K, counters)
            ref, ref_mc = reference.estimates(data.points, q, want, ("abid", "mle"))
            flags = {t: frozenset() for t in ("abid", "mle")}
            for item in filter(None, row[4].split("|")):
                tag, flag = item.split(":")
                flags[tag] = flags[tag] | {flag}
            got = {t: (values[t][j], flags[t]) for t in ("abid", "mle")}
            problems += found + reference.compare_estimates(f"{where} query {q}", got, ref)
            if abs(float(row[3]) - ref_mc) > reference.MEAN_COSINE_ATOL:
                problems.append(f"{where} query {q}: mean cosine {row[3]}, reference {ref_mc!r}")
        return problems


def _count(values: np.ndarray, width: float) -> dict[int, int]:
    bins, counts = np.unique(np.floor(values / width).astype(np.int64), return_counts=True)
    return {int(b): int(c) for b, c in zip(bins, counts)}


def _mode_center(counts: dict[int, int], width: float) -> float:
    best = max(counts.values())
    return (min(b for b, c in counts.items() if c == best) + 0.5) * width


WORKLOADS = {w.name: w for w in (TableCubes, TrailsEveryK, CliLattice)}
