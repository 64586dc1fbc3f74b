"""CLI smoke tests for ``python -m repro.sweep``."""

import json

import pytest

from repro.sweep.cli import build_parser, main


def test_dry_run_lists_points(capsys):
    assert main(["--figure", "fig10", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "27 points" in out  # 3 schemes x 9 loads
    assert out.count("seed=") == 27


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--figure", "fig99"])


def test_figure_is_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1", "ten"])
def test_scale_must_be_a_finite_positive_number(scale, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--figure", "fig10", f"--scale={scale}", "--dry-run"])
    assert exc.value.code == 2
    assert "finite number > 0" in capsys.readouterr().err


def test_end_to_end_writes_only_the_records_file(tmp_path, monkeypatch):
    # Run from an empty working directory: the records file named by
    # --out is the only file the CLI leaves behind.
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "--figure",
            "fig12",
            "--scale",
            "0.01",  # floors to the minimum measurement window
            "--jobs",
            "2",
            "--out",
            "fig12.json",
        ]
    )
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig12.json"]
    payload = json.loads((tmp_path / "fig12.json").read_text())
    assert len(payload["results"]) == 10
    assert payload["meta"]["figure"] == "fig12"
