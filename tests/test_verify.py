import ast
from pathlib import Path

import numpy as np
import pytest

from convneg import composition, verify
from convneg.composition import mult, phaser
from convneg.verify import verify_theorems

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_small_run_passes():
    report = verify_theorems(seed=7, trials=10)
    assert report.passed
    assert all(r.failures == 0 for r in report.results)


def test_report_renders_one_line_per_suite():
    report = verify_theorems(seed=7, trials=5)
    lines = report.render().splitlines()
    assert len(lines) == len(report.results) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])


def test_seed_reproducibility():
    first = verify_theorems(seed=3, trials=8)
    second = verify_theorems(seed=3, trials=8)
    assert first.render() == second.render()


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        verify_theorems(seed=0, trials=0)


def test_broken_phaser_is_caught():
    # negative control: swapping phaser for an entrywise product must fail
    # the flattening suites
    report = verify_theorems(seed=0, trials=10, overrides={"phaser": mult})
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert "support-inverse composition gives the support projector" in failed


def test_broken_spider_is_caught():
    def shifted_spider(a, b):
        from convneg.composition import spider
        from convneg.spectral import Dmat

        out = spider(a, b)
        return Dmat(out.matrix + 1e-4 * np.eye(out.dim))

    report = verify_theorems(seed=0, trials=10, overrides={"spider": shifted_spider})
    assert not report.passed


def test_suites_read_the_one_composition_table():
    assert verify.COMPOSITIONS is composition.COMPOSITIONS


def test_overrides_leave_the_shared_table_alone():
    verify_theorems(seed=0, trials=2, overrides={"phaser": mult})
    assert verify.COMPOSITIONS["phaser"] is phaser
    with pytest.raises(TypeError):
        verify.COMPOSITIONS["phaser"] = mult


def test_acceptance_gate_runs_only_reported_suites():
    # the gate's criteria call verify's suites; each must be one `verify` reports
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "verify"
        and node.attr.startswith("suite_")
    }
    assert called
    assert all(getattr(verify, name) in verify.ALL_SUITES for name in called)
