"""The benchmark's checks pass on the package's answers and catch wrong ones.

Run from the repository root: ``python3 -m pytest bench``.
"""

import dataclasses

import numpy as np
import pytest

import reference
import run
import workloads
from angleid import core, neighbors, synth


class SmallCubes(workloads.TableCubes):
    QUERIES = 40
    BATCH = 20
    CHECKED = 40  # every row meets the reference


class SmallTrails(workloads.TrailsEveryK):
    K_VALUES = range(10, 61)
    POINTS = 4
    BATCH = 2
    CHECKED = 4


def _round(wl):
    return [wl.run(0, b) for b in wl.batches]


@pytest.fixture(scope="module")
def cubes():
    wl = SmallCubes(seed=5, workdir=None, in_process=True)
    wl.setup(0)
    return wl, _round(wl)


@pytest.fixture(scope="module")
def trails():
    wl = SmallTrails(seed=5, workdir=None, in_process=True)
    wl.setup(0)
    return wl, _round(wl)


def _perturbed(table, row_pos, tag, rel=1e-6):
    rows = list(table.rows)
    idx, ests = rows[row_pos]
    ests = dict(ests)
    ests[tag] = dataclasses.replace(ests[tag], value=ests[tag].value * (1 + rel))
    rows[row_pos] = (idx, ests)
    return core.EstimateTable(tuple(rows), table.mean_cosines)


def test_cubes_checks_pass_on_the_package(cubes):
    wl, outs = cubes
    problems, counters = wl.check(outs)
    assert problems == []
    assert counters["duplicates_excluded"] == counters["kth_ties"] == 0
    assert counters["criterion11.abid_share"] > counters["criterion11.mle_share"]


@pytest.mark.parametrize("tag", ["abid", "rabid", "mle", "mom", "ged"])
def test_cubes_checks_catch_one_estimate_off_by_1e6(cubes, tag):
    wl, outs = cubes
    problems, _ = wl.check([_perturbed(outs[0], 3, tag)] + outs[1:])
    assert any(tag in p and "reference" in p for p in problems)


def test_repeat_check_catches_a_round_that_differs_in_the_last_bits(cubes):
    wl, outs = cubes
    keys = [wl.key(o) for o in outs]
    again = [wl.run(1, b) for b in wl.batches]
    assert run.repeat_problems(wl, keys, again, 1) == []
    again[1] = _perturbed(again[1], 0, "mle", rel=1e-15)
    assert run.repeat_problems(wl, keys, again, 1) == ["round 1 batch 1: output differs from round 0"]


def test_checks_catch_two_swapped_neighbors(cubes, monkeypatch):
    wl, outs = cubes
    real_knn = neighbors.knn

    def swapped(data, query, k):
        nl = real_knn(data, query, k)
        idx = nl.indices.copy()
        idx[[4, 5]] = idx[[5, 4]]
        return neighbors.NeighborList(nl.query_index, idx, nl.distances)

    monkeypatch.setattr(workloads.neighbors, "knn", swapped)
    problems, _ = wl.check(outs)
    assert len(problems) == SmallCubes.CHECKED
    assert all("neighbor indices differ" in p for p in problems)


def test_trails_checks_pass_on_the_package(trails):
    wl, outs = trails
    problems, counters = wl.check(outs)
    assert problems == []
    assert counters["duplicates_excluded"] == counters["kth_ties"] == 0
    assert counters["abid_over_k_max"] <= 1.0


@pytest.mark.parametrize("tag", ["abid", "mle"])
def test_trails_checks_catch_one_value_off_by_1e6(trails, tag):
    wl, outs = trails
    out = dict(outs[0])
    est = out[tag].estimates.copy()
    est[1, 17] *= 1 + 1e-6
    out[tag] = dataclasses.replace(out[tag], estimates=est)
    problems, _ = wl.check([out] + outs[1:])
    assert problems == [f"point {out[tag].point_indices[1]}: {tag} trail differs "
                        f"from the reference at k=[{10 + 17}]"]


def test_trails_checks_catch_abid_above_k(trails):
    wl, outs = trails
    out = dict(outs[0])
    est = out["abid"].estimates.copy()
    est[0, 0] = 10.5  # k = 10
    out["abid"] = dataclasses.replace(out["abid"], estimates=est)
    problems, _ = wl.check([out] + outs[1:])
    assert any("abid exceeds k" in p for p in problems)


def test_reference_knn_drops_duplicates_and_orders_ties_by_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, 0.0]])
    nb = reference.knn(pts, 0, 2)
    assert nb.indices.tolist() == [1, 3]
    assert nb.duplicates_excluded == 1
    assert nb.kth_ties == 1  # point 4 sits at the 2nd distance too


def test_reference_matches_the_package_on_a_ball():
    data = synth.sample_ball(300, 3, seed=11)
    from angleid import angle_id

    for q in (0, 17, 299):
        want = reference.knn(data.points, q, 30)
        got = neighbors.knn(data, q, 30)
        assert reference.compare_neighbors("q", got.indices, got.distances, want) == []
        ref, mc = reference.estimates(data.points, q, want, core.ESTIMATOR_TAGS)
        est = angle_id.estimate_point(data, q, 30, estimators=core.ESTIMATOR_TAGS)
        assert reference.compare_estimates("q", {t: (e.value, e.flags) for t, e in est.items()}, ref) == []
