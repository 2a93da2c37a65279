"""Golden digests of the offline experiment's output.

The fused engine is compared against ``run_workload``, and perfbench
compares each op against a ``SPIRE_SCALAR_FALLBACK=1`` pass, but a
change that moves every path the same way (an event formula, a TMA
formula, a fitting tweak) passes both.  These digests pin the absolute
output of a reduced experiment at two seeds instead:

- every workload's emitted samples, full counter totals and Top-Down
  fractions;
- the trained model's ``to_dict()``;
- the ``(metric, estimate)`` rankings of the four testing workloads.

They are checked on the default path and on the scalar-fallback path
alike.  ``PAPER_GOLDEN`` pins the same payloads at the paper's scale
(``ExperimentConfig()``), whose windows span several fused chunks, so on
a multi-core host its default path forks them across the CPUs
(:func:`repro.concurrency.fork_join`).  Tier-1 checks that path here;
``benchmarks/bench_golden.py`` checks both paths in the ``paper-claims``
job, since the scalar path takes about ten times as long.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.guard import reset_guards
from repro.pipeline import ExperimentConfig, run_experiment

GOLDEN = {
    1: {
        "runs": (
            "525e9cd6dc93527ca0b3c5ed69e5eb12"
            "c06f723fdc19429dcbecb3177ddbf639"
        ),
        "model": (
            "3ccf94c094ce01782b092e1eda5e2794"
            "ac867b2133b9b80c97fa938c14b1871f"
        ),
        "rankings": (
            "0977bd9d3460db0027e44e780dd6a509"
            "97518ba9c063be5ca5a7f3405c370d51"
        ),
    },
    7: {
        "runs": (
            "27afd8f0bd2839492cee094c3dd72282"
            "88bd447ff29fdaa190fa0e0ceb39eb64"
        ),
        "model": (
            "19cc432bd4f1ff1ef15c05e46b8322e3"
            "5b493ba97c62122c98b57c61783620bc"
        ),
        "rankings": (
            "41740947a8f7ae684d17e82f852e5e37"
            "bcb2b511ae07239687e33df7e4a8ec6d"
        ),
    },
}

#: ``ExperimentConfig()`` (seed 2025): 23 x 1,200 training and 4 x 600
#: testing windows in five chunks.
PAPER_GOLDEN = {
    "runs": (
        "169193a854cb5af2e4fec46f0e145d86"
        "fe219b581555ab98e1e8dbf181fcad87"
    ),
    "model": (
        "ab41aba227095ae5178efd6326d88e55"
        "c7c517980ee8535c772252fc90354f87"
    ),
    "rankings": (
        "36c2f19f3098d36a14aebfe1ade4be31"
        "2da2fbec9e2e3fb3fbbeb8f106c6843f"
    ),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reduced_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        train_windows=96, test_windows=48, windows_per_period=6, seed=seed
    )


def experiment_digests(config: ExperimentConfig) -> dict[str, str]:
    result = run_experiment(config)
    runs = result.training_runs | result.testing_runs
    return {
        "runs": _digest(
            [
                [
                    name,
                    run.collection.samples.to_records(),
                    run.collection.full_counts,
                    run.tma.fractions,
                ]
                for name, run in runs.items()
            ]
        ),
        "model": _digest(result.model.to_dict()),
        "rankings": _digest(
            {
                name: [
                    [entry.metric, entry.estimate]
                    for entry in result.analyze(name).ranking
                ]
                for name in result.testing_runs
            }
        ),
    }


@pytest.fixture(params=["default", "scalar_fallback"])
def path(request, monkeypatch):
    if request.param == "scalar_fallback":
        monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    else:
        monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
    reset_guards()
    yield request.param
    reset_guards()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_experiment_output_matches_golden(seed, path):
    assert experiment_digests(reduced_config(seed)) == GOLDEN[seed]


def test_paper_scale_output_matches_golden(monkeypatch):
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
    assert experiment_digests(ExperimentConfig()) == PAPER_GOLDEN
