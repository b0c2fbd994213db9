import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from procpolar import cli, fuzz
from procpolar.cli import main
from procpolar.market import BudgetOutcome
from procpolar.rational import format_rational

T1 = "fixtures/t1.instance"
T2 = "fixtures/t2.instance"
M1 = "fixtures/m1.instance"
M2 = "fixtures/m2.instance"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body(out: str) -> str:
    return "\n".join(l for l in out.splitlines() if not l.startswith("#"))


def test_check_tree_ok(capsys):
    code, out, _ = run(capsys, "check", "tree", T1)
    assert code == 0
    assert "[ok] tree: valid" in out


def test_check_tree_violations(tmp_path, capsys):
    bad = tmp_path / "bad.instance"
    bad.write_text(
        "version 1\n[tree]\nnode root - -\nnode u root 1/4\nnode d root 1/2\n"
    )
    code, out, _ = run(capsys, "check", "tree", str(bad))
    assert code == 1
    assert "sum to 3/4" in out


def test_decimal_rejected_with_code_2(tmp_path, capsys):
    bad = tmp_path / "dec.instance"
    bad.write_text("version 1\n[tree]\nnode root - -\nnode u root 0.5\nnode d root 0.5\n")
    code, _, err = run(capsys, "check", "tree", str(bad))
    assert code == 2
    assert "exact rationals required" in err


def test_bad_mu_line_rejected_with_code_2(tmp_path, capsys):
    tree = "version 1\n[tree]\nnode root - -\nnode u root 1/2\nnode d root 1/2\n"
    cons = "[consumption]\nnode root 0\nnode u 1\nnode d 0\nmu 0 0\n"
    for mu, message in (
        ("mu one 1", "line 11: mu time 'one'"),
        ("mu 7 1", "line 11: mu time '7'"),
        ("mu 0 1", "line 11: duplicate mu time 0"),
    ):
        bad = tmp_path / "mu.instance"
        bad.write_text(tree + cons + mu + "\n")
        code, _, err = run(capsys, "check", "tree", str(bad))
        assert code == 2, mu
        assert err.startswith("error:") and message in err, (mu, err)


def test_missing_file_code_2(tmp_path, capsys):
    binary = tmp_path / "binary.instance"
    binary.write_bytes(b"version 1\n\xc0\xff\n")
    for argv in (
        ("check", "tree", "no/such/file.instance"),
        ("check", "tree", str(tmp_path)),  # a directory
        ("check", "tree", str(binary)),  # not UTF-8
        ("check", "tree", T1, "--out", str(tmp_path)),  # unwritable --out
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_check_supermartingale(capsys):
    code, out, _ = run(capsys, "check", "supermartingale", T1)
    assert code == 0
    assert "unit-supermartingale" in out


def test_check_polar_and_bipolar(capsys):
    code, out, _ = run(capsys, "check", "polar", T1, "--count", "12")
    assert code == 0
    assert "compositions stayed in" in out
    code, out, _ = run(capsys, "check", "bipolar", T1)
    assert code == 0
    assert "lp=False incremental=False" in out  # the mirrored probe is outside


def test_check_fbt_and_cbt(capsys):
    code, out, _ = run(capsys, "check", "fbt", T1, "--probes", "4", "--seed", "3")
    assert code == 0
    code, out, _ = run(capsys, "check", "cbt", T2, "--probes", "5", "--seed", "3")
    assert code == 0


def test_check_market(capsys):
    code, out, _ = run(capsys, "check", "market", M1)
    assert code == 0
    assert "q=(1/3, 2/3)" in out


def test_budget_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "budget", M2, "--x", "1")
    assert code == 0
    code, out, _ = run(capsys, "check", "budget", M2, "--x", "99/100")
    assert code == 1
    assert "q=(1/3, 0, 2/3)" in out


def test_budget_requires_x(capsys):
    code, _, err = run(capsys, "check", "budget", M2)
    assert code == 2 and "--x" in err


def test_machine_format_lines(capsys):
    code, out, _ = run(capsys, "check", "cbt", T2, "--format", "machine", "--seed", "1")
    assert code == 0
    for line in out.strip().splitlines():
        parts = line.split("\t")
        assert len(parts) == 3 and len(parts[2]) == 16


def test_report_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.report"
    out2 = tmp_path / "b.report"
    code1, stdout1, _ = run(
        capsys, "check", "fbt", T1, "--seed", "9", "--out", str(out1)
    )
    code2, stdout2, _ = run(
        capsys, "check", "fbt", T1, "--seed", "9", "--out", str(out2)
    )
    assert code1 == code2 == 0
    assert out1.read_text() == out2.read_text()
    assert body(stdout1) == body(stdout2)


# a sequence of calls that changes every argument a parse could carry over:
# the format, an --out path then none, PROCPOLAR_SEED set then unset, and a
# parse error (exit 2) followed by a good call
SUCCESSIVE_CALLS = [
    (("check", "cbt", T2, "--format", "machine"), None),
    (("check", "cbt", T2), None),
    (("check", "polar", T1, "--count", "3", "--out", "{out}"), None),
    (("check", "polar", T1, "--count", "2"), None),
    (("fuzz", "cbt", "--count", "1", "--format", "machine"), "5"),
    (("fuzz", "cbt", "--count", "1", "--format", "machine"), None),
    (("check", "cbt", T2, "--format", "yaml"), None),
    (("check", "cbt", T2, "--format", "machine"), None),
]


def test_successive_main_calls_match_calls_in_fresh_interpreters(
    capsys, monkeypatch, tmp_path
):
    """One process reuses one parser: each call of a sequence gives the
    exit code, body and error output that the same call gives on its own,
    with no call before it."""
    src = Path(__file__).resolve().parents[1] / "src"
    fresh, successive = [], []
    for argv, seed in SUCCESSIVE_CALLS:
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PROCPOLAR_SEED", None)
        if seed is not None:
            env["PROCPOLAR_SEED"] = seed
        argv = [a.format(out=tmp_path / "fresh.report") for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "procpolar.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        fresh.append((proc.returncode, body(proc.stdout), proc.stderr))
    for argv, seed in SUCCESSIVE_CALLS:
        if seed is None:
            monkeypatch.delenv("PROCPOLAR_SEED", raising=False)
        else:
            monkeypatch.setenv("PROCPOLAR_SEED", seed)
        argv = [a.format(out=tmp_path / "successive.report") for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a parse error
            code = exc.code
        captured = capsys.readouterr()
        successive.append((code, body(captured.out), captured.err))
    assert successive == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert fresh[4][1] != fresh[5][1]  # the seed reached the suite
    # the report holds the body of the call that named it, not the next one's
    report = (tmp_path / "successive.report").read_text()
    assert report == (tmp_path / "fresh.report").read_text()
    assert "3 compositions stayed in" in report


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PROCPOLAR_SEED", "77")
    _, out_env, _ = run(capsys, "check", "cbt", T2)
    monkeypatch.delenv("PROCPOLAR_SEED")
    _, out_flag, _ = run(capsys, "check", "cbt", T2, "--seed", "77")
    assert body(out_env) == body(out_flag)


def test_fuzz_commands(capsys):
    code, out, _ = run(capsys, "fuzz", "cbt", "--count", "2", "--seed", "5")
    assert code == 0
    assert "2/2 instances ok" in out
    code, out, _ = run(capsys, "fuzz", "fbt", "--count", "2", "--seed", "5")
    assert code == 0
    code, out, _ = run(capsys, "fuzz", "market", "--count", "1", "--seed", "5")
    assert code == 0


def test_fuzz_count_zero_rejected(capsys):
    code, _, err = run(capsys, "fuzz", "cbt", "--count", "0")
    assert code == 2


def test_check_negative_counts_rejected(capsys):
    for flag in ("--count", "--probes"):
        code, out, _ = run(capsys, "check", "polar", T1, flag, "-3")
        assert code == 2, flag
        assert "compositions stayed in" not in out


def test_fuzz_determinism(capsys):
    _, out1, _ = run(capsys, "fuzz", "cbt", "--count", "2", "--seed", "8", "--format", "machine")
    _, out2, _ = run(capsys, "fuzz", "cbt", "--count", "2", "--seed", "8", "--format", "machine")
    assert out1 == out2


SINGLE_NODE_MARKET = (
    "version 1\n[tree]\nnode root - -\n[process S]\nroot 4\n"
    "[market]\nassets S\n[consumption]\nnode root 0\nmu 0 1\n"
)


def test_single_node_market(tmp_path, capsys):
    inst = tmp_path / "single.instance"
    inst.write_text(SINGLE_NODE_MARKET)
    code, out, err = run(capsys, "check", "market", str(inst))
    assert code == 0, err
    assert "[ok] market: equivalent martingale measure exists" in out
    code, out, err = run(capsys, "check", "budget", str(inst), "--x", "0")
    assert code == 0, err
    assert "[ok] budget: admissible at x=0" in out
    assert "holdings none (the root is terminal)" in out


NO_MARTINGALE_MEASURE_MARKET = (
    "version 1\n[tree]\nnode root - -\nnode u root 1/2\nnode d root 1/2\n"
    "[process S]\nroot 4\nu 8\nd 4\n[market]\nassets S\n"
    "[consumption]\nnode root 0\nnode u 3\nnode d 0\nmu 0 0\nmu 1 1\n"
)


def test_budget_refuses_a_market_without_a_martingale_measure(tmp_path, capsys):
    # S = (4; 8, 4) only rises: no measure makes it a martingale
    inst = tmp_path / "arbitrage.instance"
    inst.write_text(NO_MARTINGALE_MEASURE_MARKET)
    code, out, _ = run(capsys, "check", "market", str(inst))
    assert code == 1
    assert "[FAIL] market: rejected: no equivalent martingale measure" in out
    code, out, err = run(capsys, "check", "budget", str(inst), "--x", "0")
    assert code == 2
    assert "market invalid: no equivalent martingale measure" in err
    assert "budget" not in body(out)


@pytest.mark.parametrize("admissible", [True, False])
def test_budget_outcome_without_certificate_is_a_defect(
    tmp_path, capsys, monkeypatch, admissible
):
    inst = tmp_path / "single.instance"
    inst.write_text(SINGLE_NODE_MARKET)
    monkeypatch.setattr(
        cli, "budget_check", lambda m, density, x: BudgetOutcome(admissible, Fraction(0))
    )
    code, out, _ = run(capsys, "check", "budget", str(inst), "--x", "0")
    assert code == 1
    assert "[FAIL] budget: oracle disagreement (defect)" in out



@pytest.mark.parametrize("instance, own_probes", [(T1, 1), (T2, 0)])
def test_check_fbt_with_no_probes_checks_only_the_instance_probes(
    capsys, instance, own_probes
):
    """``--probes 0`` generates nothing, not even a hull member: its records
    are those of ``check bipolar`` on the same instance."""
    code, fbt, _ = run(capsys, "check", "fbt", instance, "--probes", "0")
    assert code == 0
    _, own, _ = run(capsys, "check", "bipolar", instance)
    records = [line for line in fbt.splitlines() if line.startswith("[")]
    assert records == [line for line in own.splitlines() if line.startswith("[")]
    assert len(records) == own_probes
    assert all("bipolar[probe" in line for line in records)

# sha256 of the `--format machine` body and the exit code of every battery on
# every fixture it accepts, at --seed 0 and --seed 3 (the body of a battery
# that draws nothing, or whose draws all pass, is the same at both seeds)
CHECK_BODIES = [
    ("tree", T1, 0, "4e6c956f1a17b64a92c31a12e0ffc3cbd255949b8f69ec4740d68684592bbb3a", None),
    ("tree", T2, 0, "4e6c956f1a17b64a92c31a12e0ffc3cbd255949b8f69ec4740d68684592bbb3a", None),
    ("tree", M1, 0, "4e6c956f1a17b64a92c31a12e0ffc3cbd255949b8f69ec4740d68684592bbb3a", None),
    ("tree", M2, 0, "4e6c956f1a17b64a92c31a12e0ffc3cbd255949b8f69ec4740d68684592bbb3a", None),
    ("supermartingale", T1, 0, "b82affec046033759f2266ed953b6565d71131b7fed2ce0c06604b476ae2eb9c", None),
    ("supermartingale", T2, 0, "7eba969eaad8948add02f2ea6cfabdc186d736666c6508c1591794396ab5b7af", None),
    ("supermartingale", M1, 1, "7db51b9a5701d93fce6bc93a85997e4f88325f4e94063ecd2ab1622db7ce6b08", None),
    ("supermartingale", M2, 1, "7db51b9a5701d93fce6bc93a85997e4f88325f4e94063ecd2ab1622db7ce6b08", None),
    ("polar", T1, 0, "e48fee3edfe58b00af0c3856d61d7699499a4ae771b78beb71f06ec2b8174858", None),
    ("polar", T2, 0, "fc8278fe0863274e9331b6375f107f15b78e9afad7dc5db54591199faaf2733f", None),
    ("bipolar", T1, 0, "6fc4cdc9347dc800c6e715e8d29eacd7a520ac17cef2bdc975f24337bb4ec095", None),
    ("bipolar", T2, 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", None),
    ("cbt", T2, 0, "457d96e9cf7c91270d63761cbdf058a0e61d6be5c1a30283bac6f2d692093816",
     "3c95f67d2b404a53d838f6645df8f4dfe0f348e57813662313208c170982b4aa"),
    ("fbt", T1, 0, "3f06163dd3524cf5b1ee45ced461e4d8be7c3e77d3b501c43322ce7c2a641a08",
     "8d3f14883b1f1e01b38c3615a198cd99080a3f06752415b6172f091c3a3b8b96"),
    ("fbt", T2, 0, "a412780d82b7d13542802381834574f5e033dd029b439be5e2324e16dd75ee8c",
     "6df4dcf04b5c78247259e3aefd9cfeebc0b6dff903c64f6fb2680c439171ff70"),
    ("market", M1, 0, "c72a7b23006d566fe065df9e37a34eed66b47b58d983d5dcc875167ef96332ae",
     "b2091699ec2b545f8b26efbfcb36e9da3c80bc6d42901a0cd7f69dbfc04220b7"),
    ("market", M2, 0, "d491afed20d5fd9e6a7c51aeea10370da3315b7c712ad1c69a80a1d477a71416",
     "383bee100b8574d8145755fa92af459e6ba7a28a065f9a3c28b0eb65fdc9cdef"),
    ("budget", M1, 0, "201a65ec4fb9f01b29b0f7fa67ea6021afbafa74c661deff8d5a0b5edc63ad9d", None),
    ("budget", M2, 0, "201a65ec4fb9f01b29b0f7fa67ea6021afbafa74c661deff8d5a0b5edc63ad9d", None),
]


@pytest.mark.parametrize("what, instance, code, digest0, digest3", CHECK_BODIES)
def test_check_bodies_are_pinned(capsys, what, instance, code, digest0, digest3):
    extra = ("--x", "1") if what == "budget" else ()
    for seed, digest in (("0", digest0), ("3", digest3 or digest0)):
        got, out, err = run(
            capsys, "check", what, instance, "--seed", seed, "--format", "machine", *extra
        )
        assert got == code, (seed, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


# sha256 of the values of every composition `random_polar_composition` draws,
# one line each: a passing polar-closure record reads the same whatever was
# drawn, so the draws are pinned on their own.  `fuzz fbt --count 12` runs
# three closure instances, whose generators come from random_supermartingale.
POLAR_DRAWS = [
    (("check", "polar", T1, "--seed", "0"), 50,
     "896f0765e8bb629ba7a76ff3b44d5edebd3f56bf2d159d95b0f5a821f470d792"),
    (("check", "polar", T1, "--seed", "3"), 50,
     "3bd5ab29f073271b388e1f79c239d1d2619a5896387bc96174e627f990e9f6b1"),
    (("fuzz", "fbt", "--count", "12", "--seed", "7"), 120,
     "2c780ce49b55181f07d22337721fa5bbc8cd492ce4c9d54c30760ea92301d3bb"),
]


@pytest.mark.parametrize("argv, drawn, digest", POLAR_DRAWS)
def test_polar_closure_draws_are_pinned(capsys, monkeypatch, argv, drawn, digest):
    draw = fuzz.random_polar_composition
    seen = []

    def recording(*args):
        y = draw(*args)
        seen.append(" ".join(map(format_rational, y.values)))
        return y

    monkeypatch.setattr(fuzz, "random_polar_composition", recording)
    code, _, err = run(capsys, *argv, "--format", "machine")
    assert code == 0, err
    assert len(seen) == drawn
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == digest
