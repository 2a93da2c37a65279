"""The paper-scale experiment against its golden digests, on both paths.

``tests/test_experiment_golden.py`` pins every workload's samples,
counter totals and Top-Down fractions, the trained model and the four
testing rankings of ``ExperimentConfig()`` (``PAPER_GOLDEN``), and
tier-1 checks the default path, whose five fused chunks fork across the
CPUs on a multi-core host.  This bench checks the same digests on the
default path and under ``SPIRE_SCALAR_FALLBACK=1`` (about 4 s), where
every workload runs through the per-workload scalar oracle in one
process.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.pipeline import ExperimentConfig

# The digests live beside the tier-1 test that checks the default path.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.test_experiment_golden import (  # noqa: E402
    PAPER_GOLDEN,
    experiment_digests,
)


@pytest.mark.parametrize("scalar", (False, True), ids=("default", "scalar"))
def test_paper_scale_output_matches_golden(monkeypatch, scalar):
    if scalar:
        monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    else:
        monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
    assert experiment_digests(ExperimentConfig()) == PAPER_GOLDEN
