import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import cuspidal
from cuspidal import cli, generators, orderengine, structure
from cuspidal.cli import main, parse_divisor_spec
from cuspidal.divisors import C_generator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_divisor_spec():
    D = parse_divisor_spec("1*(1),-1*(11)", 11)
    assert dict(D.support) == {1: 1, 11: -1}
    D = parse_divisor_spec("2*(1)-1*(6)", 36)
    assert D.coeffs == C_generator(36, 6).coeffs
    D = parse_divisor_spec('{"N": 11, "coeffs": {"1": 1, "11": -1}}', 11)
    assert dict(D.support) == {1: 1, 11: -1}
    with pytest.raises(ValueError):
        parse_divisor_spec("1*(5)", 12)
    with pytest.raises(ValueError):
        parse_divisor_spec("garbage", 12)
    with pytest.raises(ValueError):
        parse_divisor_spec("", 12)


def test_json_divisor_sums_keys_naming_one_divisor(capsys):
    # "1" and "01" both name the divisor 1: the terms add up, as in the text form
    outs = []
    for spec in ('{"coeffs": {"1": 1, "01": -1}}', "1*(1),-1*(01)"):
        code, out, _ = run(capsys, "order", "12", "--divisor", spec, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["divisor"]["coeffs"] == {}
    D = parse_divisor_spec('{"coeffs": {"2": 3, "002": 4, "6": -7}}', 12)
    assert dict(D.support) == {2: 7, 6: -7}


def test_divisor_keys_are_ascii_decimal_digits(capsys):
    """A JSON key names a divisor only when it is digits 0-9; the exit-1
    message names the first key that is not.  The text form reads ASCII
    digits only."""
    for key in ("1_2", " 12 ", "+1", "-1", "\uff11\uff12", "x", "", "1.0"):
        spec = json.dumps({"coeffs": {"1": -1, key: 1}})
        code, out, err = run(capsys, "order", "12", "--divisor", spec)
        assert code == 1 and out == "", key
        assert err == f"error: a JSON divisor key must be decimal digits 0-9, not {key!r}\n"
    code, out, err = run(capsys, "order", "12", "--divisor", "1*(\uff11\uff12),-1*(1)")
    assert code == 1 and out == "" and err.startswith("error: parse error at position 0")


def test_divisor_json_roundtrip():
    D = C_generator(36, 6)
    text = json.dumps({"N": D.n, "coeffs": {str(d): c for d, c in D.support}})
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


def test_eta_json_contract_matches_the_pinned_digest(capsys):
    code, out, _ = run(capsys, "eta", "5040", "--divisor", "1*(1),-1*(5040)", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8375112a31d392c0e6a3897d45438f05ff5c981fa542665140c6d11b75f5553e")


def test_eta_profiles_the_divisor_once(capsys, monkeypatch):
    levels = []
    real = orderengine.profile

    def counted(D):
        levels.append(D.n)
        return real(D)

    for module in (orderengine, cli):
        monkeypatch.setattr(module, "profile", counted)
    code, _, _ = run(capsys, "eta", "5040", "--divisor", "1*(1),-1*(5040)", "--json")
    assert code == 0 and levels == [5040]


def test_group_verb(capsys):
    code, out, _ = run(capsys, "group", "11")
    assert code == 0 and "Z/5" in out
    code, out, _ = run(capsys, "group", "11", "--json")
    obj = json.loads(out)
    assert obj["invariant_factors"] == ["5"]


# sha256 of the raw stdout of `group N --json` and of `group N`: unlike the
# seed-0 digests, which hash sorted-key JSON, these see the order of
# "coeffs" and every character of the text form.
GROUP_JSON_STDOUT = {
    1: "61862e7164c3882cd89ccb6bcf4fe0770d18f08a599a554822e585372a6116d7",
    11: "3c842e9b7068df5c25dbc7e410d404ad739936fe3f8240e88026b3337bdf58af",
    35: "baf455fc90bae1343f97cd546cf2aebff7293c35050406cd894a36e0d6b11226",
    64: "43521f2d85820d13fa58f5c6a60936eeea73bad71723c3ca0bad3717d340a20f",
    # 32 * odd: the B2 replacement on T_u shows only here, as crosscheck
    # passes with T_u negated at these levels
    96: "27c3000095ffe233f25810e68a9957fc61d8dcf71f73f85d4b78f28780a6ed73",
    160: "b08461221b3b9e0445bd3290dd6575de4a0f75c47ced5fe41d301214a7bbe76e",
    210: "1a74bd922e43757398e44c54a9aed987b21d8a532f3825ef060aff51518c16a5",
    720: "ef5f790ceb11f1db82d62ad56c3d0fe6ef71414d35bdcd57d0e743f1ca13c371",
    4620: "351b67076ff89dc74ecb6d1859ede3a61973dbad8e53706273ac770364bbc112",
    5040: "4494a4dab2fa2b65a6fc119255c98d9a9cc6e57d682b3df4709b3f892e779542",
    55440: "39d187ed6b51f91433aac5dec43aae881b21555bda9f56595aed6b10f02c3aae",
    720720: "7e8b1bb9e533958fa5684596870bf36e9bb6541011ee49d6c783592221edec44",
}

GROUP_TEXT_STDOUT = {
    11: "00a1636c094448ae79654fc704405b3bf0bd741b615ea613916f70dfa1e6b183",
    35: "500ea464ab8b94b0726f26fece87af51a65cceef40c12573fa55b3de6e09e05f",
    210: "59aad2962ba1632fdc81f36aed55ad7c3cfa7cf14672d25c52bf8bb6416d2422",
    720: "ec6d97586ceac101e3d2e3df3bdb9bd593ba62bd21d16a5d51464e5d7fa8e9f8",
}


@pytest.mark.parametrize("flags, pinned",
                         [(["--json"], GROUP_JSON_STDOUT), ([], GROUP_TEXT_STDOUT)])
def test_group_stdout_matches_the_pinned_digests(capsys, flags, pinned):
    for n, want in pinned.items():
        code, out, _ = run(capsys, "group", str(n), *flags)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want, n


# sha256 of the raw stdout of `order N --divisor spec` as text and with
# --json, over profiles at 11 (h = 2) and two ladder levels, a divisor of
# nonzero degree, the zero divisor (GCD 0) and a three-prime level (h = 1).
ORDER_STDOUT = {
    (11, "1*(1),-1*(11)"): (
        "1e7a9b93101e50c2346192a615f3c0658e83482edfd3adade30addaace83c4ed",
        "cd25feccc06f0926965cb2d0151730f5d447735e9a14b8d475effd7e763fe279"),
    (5040, "1*(1),-1*(5040)"): (
        "d1a4add1efe0922641f0f13bd5c9ba9b44a74c03b8aea5a8c39b446d5905974f",
        "305af296e0e8b13376dc8de4046933cfc6e77ea1abd3d0a4e60515073f373d10"),
    (720720, "3*(1),-2*(7),-1*(720720)"): (
        "7e836eb6a303f091a2e216ea3444a302370caad2b30fdff7dfdf01f60dd2a046",
        "6d2bc5e1b3026fdb5af6162661e5c4f31bd5bf416dafecbbc9b24cd7c356e3cc"),
    (12, "1*(1)"): (
        "ab2df45f1fa97bd604aa02e6dbad4c18e494206857a39cfa3855dc47df0dc894",
        "b2f20d876015c7431af02cbc6db1eb56f55de992d23d1a0dde9e985112e2a831"),
    (12, "0*(1)"): (
        "6816c472289ac953186f84d0269cbd46e292a5cd950bc81fa06e1672f764ad04",
        "cd69b709c543c2630699b66d183350b5c5ac0e2052b5dbeef41475ce2eb57258"),
    (30, "2*(1),-1*(6),-1*(10)"): (
        "1eba0b2b78e2a66d6c27e04215dfebcb22efaf389c1ab7fd21a481d5ffda3081",
        "d9bb9d8fb11ce8d2c6178fd72765c2ba3851ffc07970e28acc5ff52c7df68429"),
}


@pytest.mark.parametrize("n, spec", ORDER_STDOUT)
def test_order_stdout_matches_the_pinned_digests(capsys, n, spec):
    for flags, want in zip(([], ["--json"]), ORDER_STDOUT[n, spec]):
        code, out, _ = run(capsys, "order", str(n), "--divisor", spec, *flags)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want, flags


def test_verify_verb(capsys):
    code, out, _ = run(capsys, "verify", "32")
    assert code == 0 and "pass" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "order", "12", "--divisor", "1*(5)")
    assert code == 1 and err == "error: 5 does not divide 12\n"
    for spec in ("1*(0)", '{"coeffs": {"0": 1}}'):
        code, _, err = run(capsys, "order", "12", "--divisor", spec)
        assert code == 1 and err == "error: 0 does not divide 12\n", spec
    code, _, _ = run(capsys, "nonsense")
    assert code == 1
    for verb, n in (("cusps", "0"), ("group", "0"), ("verify", str(cli.MAX_LEVEL + 1))):
        code, _, err = run(capsys, verb, n)
        assert code == 1 and err == f"error: N must be in [1, {cli.MAX_LEVEL}]\n"
    for q in ("0", "-1", "1001"):
        code, _, err = run(capsys, "eta", "11", "--divisor", "12*(1),-12*(11)", "--qexp", q)
        assert code == 1 and err.startswith("error: ") and "--qexp" in err
    code, _, err = run(capsys, "order", "11", "--divisor", '{"N": 11}')
    assert code == 1 and "coeffs" in err
    code, _, err = run(capsys, "order", "12", "--divisor", '{"coeffs": {"1": true}}')
    assert code == 1 and "coeffs" in err
    code, _, err = run(capsys, "order", "12", "--divisor", '{"N": "12", "coeffs": {"1": 1}}')
    assert code == 1 and '"N" must be an integer' in err


def _loaded_by_cli_import(module):
    """Whether a fresh `import cuspidal.cli` puts `module` in sys.modules."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspidal.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, cuspidal.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_sympy():
    assert not _loaded_by_cli_import("sympy")


def test_cli_import_does_not_load_process_pool():
    # only batch --jobs > 1 needs it
    assert not _loaded_by_cli_import("concurrent.futures.process")


def test_cli_import_does_not_load_dataclasses():
    # the package's records are NamedTuples or small value classes; dataclasses
    # would pull in inspect, ast, dis and tokenize at every start-up
    assert not _loaded_by_cli_import("dataclasses")
    assert not _loaded_by_cli_import("inspect")


def test_arithmetic_error_exits_2(capsys, monkeypatch):
    def broken(n):
        raise ArithmeticError(f"an identity fails at {n}")

    monkeypatch.setattr(cli, "crosscheck", broken)
    code, out, err = run(capsys, "verify", "11")
    assert code == 2 and out == ""
    assert err == "error: an identity fails at 11\n"


def test_no_admissible_ordering_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(generators, "_admissible", lambda factors, ell: False)
    code, out, err = run(capsys, "group", "30")
    assert code == 2 and out == ""
    assert err == "error: no admissible prime ordering for N=30, ell=2\n"
    assert "Traceback" not in err


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter: (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspidal.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "cuspidal.cli", *argv], env=env,
                         capture_output=True, text=True)
    return out.returncode, out.stderr


def test_deeply_nested_json_divisor_exits_1():
    code, err = _run_cli("order", "12", "--divisor", '{"coeffs":' + "[" * 100000)
    assert code == 1 and err == "error: JSON nested too deeply\n"
    assert "Traceback" not in err


def test_deeply_nested_batch_cache_line_exits_1(tmp_path):
    out_file = tmp_path / "batch.jsonl"
    out_file.write_text("[" * 100000 + "\n")
    code, err = _run_cli("batch", "--max", "1", "--out", str(out_file))
    assert code == 1 and err == "error: JSON nested too deeply\n"
    assert "Traceback" not in err


def test_eta_rejects_nonzero_degree(capsys):
    code, out, err = run(capsys, "eta", "11", "--divisor", "1*(1)")
    assert code == 1 and out == ""
    assert err == "error: eta certificates require degree 0\n"


def test_eta_stops_at_a_coefficient_past_the_digit_limit(capsys):
    """A q-expansion coefficient of more than 4300 digits cannot be printed,
    so eta stops there, at once, with nothing on stdout."""
    nines = "9" * 300
    start = time.perf_counter()
    code, out, err = run(capsys, "eta", "11", "--json", "--qexp", "1000",
                         "--divisor", f"{nines}*(1),-{nines}*(11)")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: q-expansion coefficient 15 has more than 4300 digits\n"


def test_order_prints_nothing_when_a_line_passes_the_digit_limit(capsys):
    """order formats every line before printing any: the divisor parses
    under the limit, its V does not, and stdout stays empty."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        nines = "9" * 639
        code, out, err = run(capsys, "order", "11", "--divisor", f"{nines}*(1),-{nines}*(11)")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err == "error: the divisor's numbers are too large to print\n"


def test_order_says_its_numbers_are_too_large_to_print(capsys):
    """At the default digit limit, 4300, a divisor of 4299-digit
    coefficients parses but its V cannot be printed: exit 1, nothing on
    stdout, and a message about the divisor, not about an interpreter call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        nines = "9" * 4299
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "order", "11", *extra,
                                 "--divisor", f"{nines}*(1),-{nines}*(11)")
            assert code == 1 and out == "", extra
            assert err == "error: the divisor's numbers are too large to print\n", extra
    finally:
        sys.set_int_max_str_digits(limit)


def test_order_says_its_numbers_are_too_large_to_read(capsys):
    """A coefficient or divisor past the digit limit cannot be parsed: exit
    1, nothing on stdout, and a message about the divisor in the text and
    the JSON form, not about an interpreter call."""
    nines = "9" * 5000
    for spec in (f"{nines}*(1),-{nines}*(11)", f"1*({nines})",
                 f'{{"coeffs": {{"1": {nines}, "11": -{nines}}}}}',
                 f'{{"coeffs": {{"{nines}": 1}}}}'):
        code, out, err = run(capsys, "order", "11", "--json", "--divisor", spec)
        assert code == 1 and out == "", spec[-20:]
        assert err == "error: the divisor's numbers are too large to read\n", spec[-20:]


def test_verify_reports_a_wrong_closed_form_order(capsys, monkeypatch):
    """A generator order that disagrees with its profile fails the level
    through the certificates' order step, with exit code 2."""
    real = structure.generator_order
    monkeypatch.setattr(structure, "generator_order",
                        lambda L, I, kind: 10 if L.base.value == 11 else real(L, I, kind))
    code, out, err = run(capsys, "verify", "11", "--json")
    assert code == 2 and "Traceback" not in err
    report = json.loads(out)
    assert [m["kind"] for m in report["mismatches"]] == ["invariant_factors", "certificates"]
    assert report["mismatches"][1]["failures"] == [
        {"criterion": "order/Z", "detail": "d=11", "pass": False}]


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


def test_batch_keeps_records_above_max(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "batch.jsonl"
    code, out, _ = run(capsys, "batch", "--max", "30", "--out", str(out_file))
    assert code == 0 and "30/30 pass" in out
    full = out_file.read_text()
    # a smaller --max serves N <= 5 and writes every record back
    code, out, _ = run(capsys, "batch", "--max", "5", "--out", str(out_file))
    assert code == 0 and "5/5 pass" in out
    assert out_file.read_text() == full
    # --force recomputes N <= --max only
    seen = []
    inner = cli.crosscheck
    monkeypatch.setattr(cli, "crosscheck", lambda n: seen.append(n) or inner(n))
    code, out, _ = run(capsys, "batch", "--max", "5", "--out", str(out_file), "--force")
    assert code == 0 and seen == [1, 2, 3, 4, 5]
    assert out_file.read_text() == full
    # the pass count and the FAIL list cover N <= --max only
    recs = [json.loads(line) for line in full.splitlines()]
    recs[19]["pass"] = False
    out_file.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
    code, out, _ = run(capsys, "batch", "--max", "5", "--out", str(out_file))
    assert code == 0 and "FAIL" not in out
    code, out, _ = run(capsys, "batch", "--max", "25", "--out", str(out_file))
    assert code == 2 and "24/25 pass" in out and "FAIL N=20" in out
    assert len(out_file.read_text().splitlines()) == 30
    assert sorted(os.listdir(tmp_path)) == ["batch.jsonl"]  # no temporary file left


def test_batch_rejects_bad_cache(tmp_path, capsys):
    out_file = tmp_path / "batch.jsonl"
    out_file.write_text('{"pass": true}\n')
    code, _, err = run(capsys, "batch", "--max", "3", "--out", str(out_file))
    assert code == 1 and "batch record" in err


def test_batch_rejects_cache_record_without_pass(tmp_path, capsys):
    out_file = tmp_path / "batch.jsonl"
    out_file.write_text('{"N": 2}\n')
    code, _, err = run(capsys, "batch", "--max", "3", "--out", str(out_file))
    assert code == 1 and err.startswith("error:") and "batch record" in err


def test_batch_out_in_missing_directory_exits_1(tmp_path, capsys):
    out_file = tmp_path / "missing" / "batch.jsonl"
    code, _, err = run(capsys, "batch", "--max", "3", "--out", str(out_file))
    assert code == 1 and err.startswith("error:")
    assert not (tmp_path / "missing").exists()


def test_batch_out_naming_a_directory_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "batch", "--max", "3", "--out", str(tmp_path))
    assert code == 1 and err.startswith("error:")
    assert os.listdir(tmp_path) == []


def test_batch_argument_bounds(tmp_path, capsys, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(cli, "crosscheck", NoPool)
    out_file = tmp_path / "batch.jsonl"
    for argv in (["--max", "0"], ["--max", str(cli.MAX_LEVEL + 1)], ["--max", "2000000"]):
        code, _, err = run(capsys, "batch", *argv, "--out", str(out_file))
        assert code == 1 and err == f"error: --max must be in [1, {cli.MAX_LEVEL}]\n"
    cpus = os.cpu_count() or 1
    for jobs in ("0", "-1", str(cpus + 1)):
        code, _, err = run(capsys, "batch", "--max", "5", "--jobs", jobs, "--out", str(out_file))
        assert code == 1 and err == f"error: --jobs must be in [1, {cpus}]\n"
    assert not out_file.exists()


def test_batch_unwritable_out_fails_before_any_level(tmp_path, capsys, monkeypatch):
    def no_level(n):
        raise AssertionError(f"crosscheck({n}) ran before --out was opened")

    monkeypatch.setattr(cli, "crosscheck", no_level)
    out_file = tmp_path / "missing" / "batch.jsonl"
    code, _, err = run(capsys, "batch", "--max", "720", "--out", str(out_file))
    assert code == 1 and err.startswith("error:")
    assert str(out_file) in err and ".tmp" not in err


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_batch_jobs_2_matches_jobs_1(tmp_path, capsys):
    # three slices at --jobs 2: two full ones and one level
    top = 2 * 2 * cli.BATCH_SLICE_PER_JOB + 1
    out_file = tmp_path / "batch.jsonl"
    runs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "batch", "--max", str(top), "--jobs", jobs,
                           "--out", str(out_file), "--force")
        runs.append((code, out, out_file.read_bytes()))
        out_file.unlink()
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and f"{top}/{top} pass" in runs[0][1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_batch_jobs_submits_bounded_slices(tmp_path, capsys, monkeypatch):
    """batch --jobs J hands the pool at most BATCH_SLICE_PER_JOB * J levels
    at a time, in order, and every level once, BATCH_CHUNK levels per task."""
    slices, chunks = [], set()

    class Pool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, levels, chunksize=1):
            slices.append(list(levels))
            chunks.add(chunksize)
            return map(fn, levels)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    top = 2 * 2 * cli.BATCH_SLICE_PER_JOB + 1
    code, out, _ = run(capsys, "batch", "--max", str(top), "--jobs", "2",
                       "--out", str(tmp_path / "batch.jsonl"), "--force")
    assert code == 0 and f"{top}/{top} pass" in out
    assert [len(s) for s in slices] == [2 * cli.BATCH_SLICE_PER_JOB] * 2 + [1]
    assert sum(slices, []) == list(range(1, top + 1))
    assert chunks == {cli.BATCH_CHUNK} and cli.BATCH_CHUNK > 1
