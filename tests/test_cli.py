"""CLI behavior: artifacts, exit codes, determinism, config handling."""

import hashlib
import json

from kamtorus import cli
from kamtorus import construction as con
from kamtorus.serialize import read_json


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_construct_artifacts_and_round_trip(tmp_path):
    code = run("--out-dir", tmp_path, "construct", "--mode", "toy",
               "--levels", "2")
    assert code == 0
    state = con.state_from_jsonable(read_json(tmp_path / "state.json"))
    assert state.level == 2
    again = con.state_to_jsonable(state)
    assert again == read_json(tmp_path / "state.json")
    report = read_json(tmp_path / "construction_report.json")
    assert report["report"]["all_passed"] is True


def test_construct_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("--out-dir", out, "construct", "--mode", "toy",
                   "--levels", "2") == 0
    for name in ("state.json", "construction_report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_analyze_csv_shape(tmp_path):
    assert run("--out-dir", tmp_path, "analyze", "--alpha", "golden",
               "--depth", "12") == 0
    lines = (tmp_path / "analyze.csv").read_text().splitlines()
    assert lines[0] == "k,scale,omega,partial_sum"
    assert len(lines) == 13
    payload = read_json(tmp_path / "analyze.json")
    assert payload["continued_fraction"]["quotients"][:5] == [1, 1, 1, 1, 1]


def test_schedule_and_report_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("--out-dir", out, "schedule", "--alpha", "sqrt-pair",
                   "--stages", "4", "--grid-count", "8",
                   "--flat-stages", "2") == 0
        assert run("--out-dir", out, "report", "--csv", out / "schedule.csv",
                   "--kind", "schedule") == 0
    assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()
    assert (a / "schedule.json").read_bytes() == (b / "schedule.json").read_bytes()
    assert (a / "schedule_heatmap.svg").read_bytes() == \
        (b / "schedule_heatmap.svg").read_bytes()
    payload = read_json(a / "schedule.json")
    assert [(e["stage"], e["scanned_modes"]) for e in payload["scan"]] == \
        [(3, 144), (4, 544)]
    assert all(0 < e["exact_modes"] < e["scanned_modes"] for e in payload["scan"])
    assert "scan" not in payload["headline"]
    svg = (a / "schedule_heatmap.svg").read_text()
    assert svg.startswith("<svg ")


def test_construction_weights_read_flat_stages(tmp_path):
    # --flat-stages 0 keeps the bytes this recipe wrote when it ignored the
    # flag; a positive count holds the first stages flat
    assert run("--out-dir", tmp_path, "construct", "--mode", "toy",
               "--levels", "4") == 0
    state = tmp_path / "state.json"
    digests = {}
    for flat in (0, 3):
        out = tmp_path / f"flat{flat}"
        assert run("--out-dir", out, "schedule", "--alpha", f"constructed:{state}",
                   "--stages", "3", "--grid-count", "8",
                   "--weights", f"construction:{state}",
                   "--flat-stages", flat) == 0
        digests[flat] = hashlib.sha256((out / "schedule.csv").read_bytes()).hexdigest()
    assert digests[0] == "142754df38d946f4c65b60f714ff219a6fce6d45425f2ab62dae39d11d30368b"
    assert digests[3] != digests[0]


def test_linearize_artifacts(tmp_path):
    assert run("--out-dir", tmp_path, "linearize", "--n-max", "12",
               "--stages", "6", "--epsilon", "1e-3", "--svg") == 0
    summary = read_json(tmp_path / "kam_summary.json")
    assert summary["summary"]["converged"] is True
    rows = (tmp_path / "kam_stages.csv").read_text().splitlines()
    assert rows[0] == "stage,trunc,norm_head,norm_tail,residual,const_term,defect,radii_min"
    assert run("--out-dir", tmp_path, "report", "--csv",
               tmp_path / "kam_stages.csv", "--kind", "kam") == 0


def test_linearize_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("--out-dir", out, "--seed", "7", "linearize",
                   "--n-max", "12", "--stages", "5") == 0
    assert (a / "kam_stages.csv").read_bytes() == (b / "kam_stages.csv").read_bytes()
    assert (a / "kam_summary.json").read_bytes() == (b / "kam_summary.json").read_bytes()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": 1, "mode": "toy",
                               "out-dir": str(tmp_path / "out")}))
    assert run("--config", cfg, "construct", "--levels", "2") == 0
    state = con.state_from_jsonable(read_json(tmp_path / "out" / "state.json"))
    assert state.level == 2  # flag wins over config


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levles": 3}))
    assert run("--config", cfg, "construct") == 2


def test_malformed_csv_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert run("--out-dir", tmp_path, "report", "--csv", bad,
               "--kind", "schedule") == 2
    diag = read_json(tmp_path / "diagnostic.json")
    assert diag["error"] == "SchemaMismatch"


def test_resonant_alpha_exit_3(tmp_path):
    code = run("--out-dir", tmp_path, "schedule", "--alpha", "0.5,0.25",
               "--stages", "4", "--weights", "flat:0.3")
    assert code == 3
    diag = read_json(tmp_path / "diagnostic.json")
    assert diag["error"] == "ResonanceDetected"
    assert "lattice_vector" in diag


def test_bad_alpha_spec_exit_2(tmp_path):
    assert run("--out-dir", tmp_path, "analyze", "--alpha", "nonsense") == 2


def test_verify_suite(tmp_path):
    assert run("--out-dir", tmp_path, "verify", "--levels", "3",
               "--depth", "6") == 0
    payload = read_json(tmp_path / "verify_report.json")
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 6


def test_precision_flag_recorded(tmp_path):
    assert run("--precision", "320", "--out-dir", tmp_path, "analyze",
               "--alpha", "golden", "--depth", "4") == 0
    assert read_json(tmp_path / "analyze.json")["precision_bits"] == 320


def test_precision_set_by_flag_or_config_only(tmp_path, monkeypatch):
    monkeypatch.setenv("KAMTORUS_PRECISION", "320")
    assert run("--out-dir", tmp_path / "env", "analyze", "--alpha", "golden",
               "--depth", "4") == 0
    assert read_json(tmp_path / "env" / "analyze.json")["precision_bits"] == 256
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": 384}))
    assert run("--config", cfg, "--out-dir", tmp_path / "cfg", "analyze",
               "--alpha", "golden", "--depth", "4") == 0
    assert read_json(tmp_path / "cfg" / "analyze.json")["precision_bits"] == 384


def test_analyze_constructed_independent_of_location(tmp_path):
    assert run("--out-dir", tmp_path / "build", "construct", "--mode", "toy",
               "--levels", "2") == 0
    state_bytes = (tmp_path / "build" / "state.json").read_bytes()
    outs = []
    for name in ("a", "deeper/b"):
        out = tmp_path / name
        out.mkdir(parents=True)
        (out / "state.json").write_bytes(state_bytes)
        assert run("--out-dir", out, "analyze", "--alpha",
                   f"constructed:{out / 'state.json'}", "--depth", "4") == 0
        outs.append((out / "analyze.json").read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["alpha"] == "constructed"
    assert payload["alpha_state_sha256"] == hashlib.sha256(state_bytes).hexdigest()
