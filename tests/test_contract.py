"""Behaviour contract: a fixed-seed BER CSV that every refactor must leave
byte-identical.

``tests/data/contract_ber.csv`` holds the counts of small sweeps (at
most 600 trials a point, stopping at 500 bit errors) over both scheme
labels, both detectors, both channel paths, G in {1, 2, 4} and K = 3 with
non-default search knobs, followed by the ``config_to_text`` form of each
base config. Configs are built from
``key=value`` text so the cases read the same whatever the config's
Python fields are. The file is rewritten only when the simulated
statistics are meant to change:

    PYTHONPATH=src python tests/test_contract.py
"""
import io
from pathlib import Path

from svcim.harness import SweepPlan, run_ber_sweep, write_ber_csv
from svcim.link import config_from_text, config_to_text

CONTRACT = Path(__file__).resolve().parent / "data" / "contract_ber.csv"

_KNOBS = "K=3\nmmp_omega=3\nmmp_lam=0.05\nmmp_upsilon=4\nmmp_relative_stop=False\n"

# (base config text, Eb/N0 points)
CASES = (
    ("scheme=esvc\nN=64\nM=64\nseed=1\n", (0.0, 6.0)),
    ("scheme=secbim\nG=1\nN=64\nM=64\nseed=1\n", (0.0, 6.0)),
    ("scheme=secbim\nG=2\nN=64\nM=64\nseed=2\n", (0.0, 6.0)),
    ("scheme=secbim\nG=4\nN=32\nM=32\nseed=3\n", (0.0, 6.0)),
    ("scheme=esvc\ndetector=ml\nN=32\nM=16\nseed=4\n", (0.0, 6.0)),
    ("scheme=secbim\ndetector=ml\nG=2\nN=32\nM=16\nseed=5\n", (0.0, 6.0)),
    ("scheme=esvc\nN=64\nM=32\nchannel_path=time\nseed=6\n", (0.0, 6.0)),
    ("scheme=esvc\ndetector=ml\nN=64\nM=32\nchannel_path=time\nseed=7\n", (0.0, 6.0)),
    ("scheme=esvc\nN=32\nM=16\nseed=8\n" + _KNOBS, (0.0, 6.0)),
    ("scheme=secbim\nG=2\nN=32\nM=16\nseed=9\n" + _KNOBS, (0.0, 6.0)),
)


def build_contract() -> str:
    records, texts = [], []
    for text, points in CASES:
        cfg = config_from_text(text)
        plan = SweepPlan(cfg, "ebn0", points, min_errors=500, max_trials=600, shard_trials=64)
        records += run_ber_sweep(plan, workers=1, measure_time=False)
        texts.append(config_to_text(cfg))
    buf = io.StringIO()
    write_ber_csv(records, buf)
    for i, text in enumerate(texts):
        buf.write(f"# base config of case {i}\n{text}")
    return buf.getvalue()


def test_contract_csv_is_byte_identical():
    assert build_contract() == CONTRACT.read_text()


if __name__ == "__main__":
    CONTRACT.parent.mkdir(exist_ok=True)
    CONTRACT.write_text(build_contract())
