"""Fast self-test of the benchmark: a tiny world through every phase.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

It checks that an honest store passes every check, that each run
reports every metric BENCHMARK.json names, and that a store which
answers one CR13 length wrongly is counted as failing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from socialbench import ReferenceStore  # noqa: E402

from run import run_workload  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quiet(*_args) -> None:
    pass


class WrongCR13Once:
    """Delegates to a ReferenceStore but answers its first CR13b one hop long."""

    def __init__(self, **kwargs):
        self._inner = ReferenceStore(**kwargs)
        self._lied = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_query(self, variant, params, snapshot=None):
        result = self._inner.execute_query(variant, params, snapshot)
        if variant == "CR13b" and not self._lied:
            self._lied = True
            return {"shortestPathLength": result["shortestPathLength"] + 1}
        return result


@pytest.mark.parametrize("traced, section", [(False, "end_to_end"), (True, "per_layer")])
def test_honest_store_passes_and_reports_every_metric(traced, section):
    result = run_workload(TINY, seed=1, seconds=0, traced=traced, log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_one_wrong_cr13_length_counts_as_failed():
    lines = []
    result = run_workload(TINY, seed=1, seconds=0, traced=False,
                          store_cls=WrongCR13Once, log=lines.append)
    assert not result["correct"]
    assert result["failed"] >= 1
    report = "\n".join(lines)
    assert "replay.path_guarantee" in report
    assert "validate.divergence" in report
