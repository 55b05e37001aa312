"""The package root: the names its callers import, and the version."""
import re
from pathlib import Path

import svcim
from svcim import harness, link


def test_root_exposes_what_the_benchmark_and_scripts_import():
    assert svcim.SweepPlan is harness.SweepPlan
    assert svcim.run_ber_sweep is harness.run_ber_sweep
    assert svcim.SystemConfig is link.SystemConfig
    assert svcim.LinkContext is link.LinkContext


def test_version_is_the_pyproject_version():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert svcim.__version__ == re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
