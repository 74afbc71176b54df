"""Tests of the benchmark harness: the correctness gate and the recorder.

They use small instances of the workloads so that they run in seconds.
"""

from heisencheck import chartab, hilbert, linalg

from run import measure
from tracer import EXACT, Recorder
from workloads import Census, HilbertDeep

SMALL_CENSUS = {
    (11, 23): ({2: 60, 4: 15840, 6: 276661}, 2,
               "cf1e1ce969d3488a71a8ba825202d8b6cf97eb1c80901cbd0a4a3ed231649bee"),
    (9, 19): ({2: 40, 4: 7200}, 2,
              "01cfb73525d7e51d7624a5a434ae23a6165904adafd538a6b15c89f88c13df34"),
}


def error_rate(workload) -> float:
    result = measure(workload, 0, trace=False)
    return result["failed"] / len(result["ops"])


def test_correct_expectations_pass_the_gate():
    assert error_rate(HilbertDeep(seed=5, t_max=4)) == 0
    assert error_rate(Census(seed=5, expected=SMALL_CENSUS)) == 0


def test_corrupted_expectation_raises_error_rate():
    assert error_rate(HilbertDeep(seed=5, t_max=4, expected=[1, 9, 36, 81, 145])) == 1
    wrong_count = {(9, 19): ({2: 40, 4: 7201}, 2, SMALL_CENSUS[(9, 19)][2])}
    assert error_rate(Census(seed=5, expected=wrong_count)) == 1
    wrong_points = {(9, 19): ({2: 40, 4: 7200}, 2, "0" * 64)}
    assert error_rate(Census(seed=5, expected=wrong_points)) == 1


def traced_counts(op) -> dict:
    with Recorder() as recorder:
        op()
    metrics = recorder.metrics()
    return {name: metrics[name] for name in EXACT}


def test_exact_counts_repeat_across_traced_runs():
    census = Census(seed=0, expected=SMALL_CENSUS)
    pairs = HilbertDeep(seed=7, t_max=5)

    def op():
        census.op()
        pairs.rng.seed(7)
        pairs.op()
        chartab.decompose(chartab.sym_power_character(chartab.character(3), 2))

    op()  # build the lru_cache constructions once
    first, second = traced_counts(op), traced_counts(op)
    assert first == second
    assert first["ffscan.points"] == census.points()
    assert first["hilbert.macaulay.shapes"]  # seen through hilbert's own binding
    assert first["exactnum.CycloNum.mul.calls"] > 0


def test_recorder_restores_every_binding_site():
    original = linalg.rank_mod
    with Recorder():
        assert hilbert.rank_mod is not original
        assert hilbert.rank_mod is linalg.rank_mod
    assert hilbert.rank_mod is original and linalg.rank_mod is original
