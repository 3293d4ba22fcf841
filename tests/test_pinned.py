"""The driver of .github/pinned.py: repeated runs and the JSON report."""
import hashlib
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

from mpart import cli

ROOT = Path(__file__).resolve().parents[1]


def load_pinned():
    spec = importlib.util.spec_from_file_location("pinned", ROOT / ".github" / "pinned.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_driver_repeats_each_pin_and_reports_every_run(tmp_path, monkeypatch, capsys):
    pinned = load_pinned()
    # the pins run `python -m mpart` on the sources this test imports
    src = str(Path(cli.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.setattr(sys, "path", sys.path[:])
    pins = [
        (20, 0, hashlib.sha256(b"m,a_m\n1,1\n2,1\n3,1\n4,1\n5,2\n").hexdigest(), ["table", "5"]),
        # the third row of enum 10, past the limit: every run of this pin fails
        (20, 0, "1+2+3+4", ["enum", "10", "--limit", "2"]),
    ]
    out = tmp_path / "bench.json"
    assert pinned.drive(pins, repeat=2, out=str(out)) == 1
    log = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in log[:-1]] == ["ok", "FAILED", "ok", "FAILED"]
    assert log[-1].startswith("2 pins in ") and log[-1].endswith(", 1 failed")

    report = json.loads(out.read_text())
    assert report["python"] == platform.python_version()
    assert report["nproc"] == len(os.sched_getaffinity(0))
    assert report["PYTHONDONTWRITEBYTECODE"] == os.environ.get("PYTHONDONTWRITEBYTECODE")
    assert "commit" in report and report["reference_work_ms"] > 0
    assert (report["repeat"], report["failed"]) == (2, 1)
    assert [(p["argv"], p["ok"], p["exit_codes"], p["work_unit"], p["work"]) for p in report["pins"]] == [
        (["table", "5"], True, [0, 0], "rows", 5),
        (["enum", "10", "--limit", "2"], False, [0, 0], "rows", 2),
    ]
    for p in report["pins"]:
        times = p["times_s"]
        assert len(times) == 2 and min(times) > 0
        assert p["median_s"] == median(times) and p["spread_s"] == max(times) - min(times)
        assert p["peak_rss_mb"] > 0


def test_a_pin_fails_when_any_of_its_runs_fails(monkeypatch):
    pinned = load_pinned()
    results = iter([(True, 0, 0.1, 20.0), (False, 1, 0.1, 20.0)])
    monkeypatch.setattr(pinned, "run", lambda *pin: next(results))
    assert pinned.drive([(20, 0, None, ["table", "5"])], repeat=2) == 1
