import json
import os
import subprocess
import sys

import pytest

import cuspidal
from cuspidal.cli import main, parse_divisor_spec
from cuspidal.divisors import C_generator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_divisor_spec():
    D = parse_divisor_spec("1*(1),-1*(11)", 11)
    assert D.as_dict() == {1: 1, 11: -1}
    D = parse_divisor_spec("2*(1)-1*(6)", 36)
    assert D.coeffs == C_generator(36, 6).coeffs
    D = parse_divisor_spec('{"N": 11, "coeffs": {"1": 1, "11": -1}}', 11)
    assert D.as_dict() == {1: 1, 11: -1}
    with pytest.raises(ValueError):
        parse_divisor_spec("1*(5)", 12)
    with pytest.raises(ValueError):
        parse_divisor_spec("garbage", 12)
    with pytest.raises(ValueError):
        parse_divisor_spec("", 12)


def test_divisor_json_roundtrip():
    D = C_generator(36, 6)
    text = json.dumps({"N": D.n, "coeffs": {str(d): c for d, c in D.as_dict().items()}})
    assert parse_divisor_spec(text, 36).coeffs == D.coeffs


def test_cusps_verb(capsys):
    code, out, _ = run(capsys, "cusps", "12")
    assert code == 0 and "6 cusps" in out
    code, out, _ = run(capsys, "cusps", "12", "--json")
    obj = json.loads(out)
    assert obj["count"] == 6


def test_order_verb(capsys):
    code, out, _ = run(capsys, "order", "11", "--divisor", "1*(1),-1*(11)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == "5" and obj["gcd"] == 12


def test_eta_verb(capsys):
    code, out, _ = run(capsys, "eta", "11", "--divisor", "1*(1)-1*(11)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["exponents"] == {"1": 12, "11": -12}
    assert obj["qexp"].startswith("q^(-120/24)")


def test_group_verb(capsys):
    code, out, _ = run(capsys, "group", "11")
    assert code == 0 and "Z/5" in out
    code, out, _ = run(capsys, "group", "11", "--json")
    obj = json.loads(out)
    assert obj["invariant_factors"] == ["5"]


def test_verify_verb(capsys):
    code, out, _ = run(capsys, "verify", "32")
    assert code == 0 and "pass" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "order", "12", "--divisor", "1*(5)")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "cusps", "0")
    assert code == 1
    for q in ("0", "-1"):
        code, _, err = run(capsys, "eta", "11", "--divisor", "12*(1),-12*(11)", "--qexp", q)
        assert code == 1 and "--qexp" in err
    code, _, err = run(capsys, "order", "11", "--divisor", '{"N": 11}')
    assert code == 1 and "coeffs" in err


def test_cli_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspidal.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, cuspidal.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_eta_rejects_nonzero_degree(capsys):
    code, _, err = run(capsys, "eta", "11", "--divisor", "1*(1)")
    assert code == 1


def test_batch(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "batch.jsonl"
    code, out, _ = run(capsys, "batch", "--max", "20", "--out", str(out_file))
    assert code == 0 and "20/20 pass" in out
    lines = out_file.read_text().splitlines()
    assert len(lines) == 20
    assert [json.loads(l)["N"] for l in lines] == list(range(1, 21))
    # deterministic: re-run (served from cache) is byte-identical
    before = out_file.read_text()
    code, out, _ = run(capsys, "batch", "--max", "20", "--out", str(out_file))
    assert code == 0 and out_file.read_text() == before


def test_batch_cache_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CUSPIDAL_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "batch", "--max", "5")
    assert code == 0
    assert (tmp_path / "batch.jsonl").exists()
