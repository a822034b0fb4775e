"""End-to-end CLI behavior: output bytes, exit codes, JSON envelope."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from latmed import cli, stable_matching
from latmed.cli import build_parser, dispatch, main
from latmed.verify import block_swap_instance

FIXTURES = Path(__file__).parent / "fixtures"
SMP3 = str(FIXTURES / "smp3.txt")
MARKET2 = str(FIXTURES / "market2.txt")
MARKET60 = str(FIXTURES / "market60.txt")


def run(capsys, *argv):
    report = dispatch(list(argv))
    return report, capsys.readouterr().out


def test_paper_example_exact_output(capsys):
    report, out = run(capsys, "repro", "paper-example")
    assert out == "inputs: (1,0) (0,1) (0,2)\nmedians: (0,0) (0,1) (1,2)\nPASS\n"
    assert report.exit_code == 0


def test_smp_solve_sides(capsys):
    report, out = run(capsys, "smp", "solve", SMP3)
    assert report.exit_code == 0
    lo = out.strip()
    _, out_w = run(capsys, "smp", "solve", SMP3, "--side", "women")
    hi = out_w.strip()
    assert lo == "(0,0,0)"
    assert hi == "(1,1,0)"


def test_smp_enumerate_and_median(capsys, tmp_path):
    _, out = run(capsys, "smp", "enumerate", SMP3)
    vectors = out.split()
    assert vectors == sorted(vectors)  # lexicographic
    mfile = tmp_path / "matchings.txt"
    mfile.write_text("\n".join(vectors) + "\n")
    report, out = run(capsys, "smp", "median", SMP3,
                      "--matchings", str(mfile), "--j", "1")
    assert report.exit_code == 0
    assert out.strip() == vectors[0]  # j=1 is the meet, here the bottom


def test_smp_verify_exit_codes(capsys):
    report, out = run(capsys, "smp", "verify", SMP3, "--matching", "(0,0,0)")
    assert report.exit_code == 0 and out.strip() == "stable"
    report, out = run(capsys, "smp", "verify", SMP3, "--matching", "(0,2,1)")
    assert report.exit_code == 1
    assert out == "blocking: (1,0)\nblocking: (1,1)\nblocking: (2,2)\n"
    report, out = run(capsys, "smp", "verify", SMP3, "--matching", "(1,0,0)")
    assert report.exit_code == 1 and out == "not-a-matching\n"
    report, out = run(capsys, "smp", "verify", SMP3, "--matching", "(5,0,0)")
    assert report.exit_code == 1 and out == "RankOutOfRange: rank 5 for man 0 outside 0..2\n"
    report, out = run(capsys, "smp", "verify", SMP3, "--matching", "(0,1)")
    assert report.exit_code == 1 and out == "SizeMismatch: expected 3 ranks, got 2\n"


def test_market_commands(capsys):
    report, out = run(capsys, "market", "clear", MARKET2)
    assert report.exit_code == 0
    assert out.splitlines()[0] == "prices: (1,0)"
    assert out.splitlines()[1].startswith("matching: ")
    _, out = run(capsys, "market", "enumerate", MARKET2)
    assert out.split() == ["(1,0)", "(2,0)", "(2,1)"]
    report, out = run(capsys, "market", "verify", MARKET2, "--prices", "(1,0)")
    assert report.exit_code == 0 and out.strip() == "clearing"
    report, out = run(capsys, "market", "verify", MARKET2, "--prices", "(0,0)")
    assert report.exit_code == 1 and out.strip() == "not-clearing"


def test_market_clear_golden_bytes(capsys):
    # market60.txt: random_market_instance(random.Random(60), 60, 179); the
    # expected stdout was recorded from the auction that rebuilt every
    # demand set and matching per round
    _, out = run(capsys, "market", "clear", MARKET60, "--json")
    assert out == (FIXTURES / "market60.clear.json").read_text()


@pytest.mark.parametrize("argv, golden", [
    (["repro", "verify", "--instances", "8", "--trials", "3"], "verify8x3.json"),
    (["repro", "paper-example"], "paper_example.json"),
    (["repro", "verify"], "verify_default.json"),
])
def test_repro_golden_bytes(capsys, argv, golden):
    # a change in the order of random draws or in any battery's counts
    # changes these bytes
    _, out = run(capsys, *argv, "--json")
    assert out == (FIXTURES / golden).read_text()


def test_market_with_long_augmenting_paths(capsys, tmp_path):
    # buyer i is indifferent between items i-1 and i, so matching buyer i
    # first walks back through every earlier buyer
    n = 1200
    rows = [[1] + [0] * (n - 1)]
    rows += [[0] * (i - 1) + [1, 1] + [0] * (n - i - 1) for i in range(1, n)]
    market = tmp_path / "chain.txt"
    market.write_text(f"market {n} 1\n" + "".join(
        f"buyer {i}: " + " ".join(map(str, row)) + "\n" for i, row in enumerate(rows)))
    zeros = "(" + ",".join(["0"] * n) + ")"
    report, out = run(capsys, "market", "clear", str(market))
    assert report.exit_code == 0 and out.startswith(f"prices: {zeros}\n")
    report, out = run(capsys, "market", "verify", str(market), "--prices", zeros)
    assert report.exit_code == 0 and out == "clearing\n"


def test_market_median_roundtrip(capsys, tmp_path):
    pfile = tmp_path / "prices.txt"
    pfile.write_text("(1,0)\n(2,1)\n(2,0)\n")
    report, out = run(capsys, "market", "median", MARKET2,
                      "--prices", str(pfile), "--j", "2")
    assert report.exit_code == 0 and out.strip() == "(2,0)"


def test_lattice_medians_and_j_flag(capsys, tmp_path):
    vfile = tmp_path / "vecs.txt"
    vfile.write_text("(1,0)\n(0,1)\n(0,2)\n")
    _, out = run(capsys, "lattice", "medians", "--vectors", str(vfile))
    assert out.split() == ["(0,0)", "(0,1)", "(1,2)"]
    _, out = run(capsys, "lattice", "medians", "--vectors", str(vfile), "--j", "2")
    assert out.strip() == "(0,1)"
    report, out = run(capsys, "lattice", "medians", "--vectors", str(vfile), "--j", "9")
    assert report.exit_code == 1 and out.startswith("JOutOfRange")


def test_lattice_medians_of_empty_vectors(capsys, tmp_path):
    # k zero-length vectors have k zero-length medians
    vfile = tmp_path / "empty.txt"
    vfile.write_text("()\n()\n()\n")
    report, out = run(capsys, "lattice", "medians", "--vectors", str(vfile))
    assert report.exit_code == 0 and out == "()\n()\n()\n"
    _, out = run(capsys, "lattice", "medians", "--vectors", str(vfile), "--json")
    payload = json.loads(out)
    assert payload["results"] == ["()", "()", "()"]
    assert payload["digest"] == "bf7189515ec1"


def test_lattice_check_regular(capsys, tmp_path):
    vfile = tmp_path / "vecs.txt"
    vfile.write_text("(0,0)\n(1,0)\n(0,1)\n(1,1)\n")
    report, out = run(capsys, "lattice", "check-regular", "--vectors", str(vfile))
    assert report.exit_code == 0 and out.strip() == "regular"
    vfile.write_text("(1,0)\n(0,1)\n")
    report, out = run(capsys, "lattice", "check-regular", "--vectors", str(vfile))
    assert report.exit_code == 1
    assert out.strip() == "violation: (1,0) (0,1) meet"


def test_lattice_commands_refuse_mixed_lengths(capsys, tmp_path):
    # the first pair's meet leaves the set, yet the shape is refused first
    vfile = tmp_path / "mixed.txt"
    vfile.write_text("(0,1)\n(1,0)\n(2)\n")
    for command in ("check-regular", "medians"):
        report, out = run(capsys, "lattice", command, "--vectors", str(vfile))
        assert report.exit_code == 1
        assert out == "ShapeMismatch: vector lengths differ: 2 vs 1\n"


def test_domain_errors_report_class_name(capsys, tmp_path):
    report, out = run(capsys, "smp", "solve", str(tmp_path / "missing.txt"))
    assert report.exit_code == 1 and out.startswith("FileError")
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    report, out = run(capsys, "smp", "solve", str(bad))
    assert report.exit_code == 1 and out.startswith("MalformedFile")
    wide = tmp_path / "wide.txt"
    wide.write_text("market 1 10000\nbuyer 0: 0\n")
    report, out = run(capsys, "market", "enumerate", str(wide))
    assert report.exit_code == 1 and out.startswith("TooLarge")
    extra = tmp_path / "extra.txt"
    extra.write_text("market 1 5 7\nbuyer 0: 1\n")  # a token past the optional cap
    report, out = run(capsys, "market", "clear", str(extra))
    assert report.exit_code == 1 and out == "MalformedFile: bad header 'market 1 5 7'\n"


def test_undecodable_files_are_file_errors(capsys, tmp_path):
    # a byte that is not UTF-8 in any input file is reported, not raised
    bad = tmp_path / "bad.txt"
    for text, argv in ((b"(0,\xff)\n", ["lattice", "medians", "--vectors", str(bad)]),
                       (b"smp 1\nman 0: 0\nwoman 0: \xff0\n", ["smp", "solve", str(bad)]),
                       (b"market 1\nbuyer 0: \xff\n", ["market", "clear", str(bad)])):
        bad.write_bytes(text)
        report, out = run(capsys, *argv)
        assert report.exit_code == 1 and out.startswith("FileError: "), argv
        assert "can't decode byte 0xff" in out


def test_handler_is_looked_up_per_call(capsys, monkeypatch):
    # a cmd_* function replaced after the parser is built (as a tracer
    # replaces it) is the one dispatch runs
    build_parser()
    calls = []

    def patched(ns):
        calls.append(ns.command)
        return "", ["patched"], []

    monkeypatch.setattr(cli, "cmd_smp_solve", patched)
    report, out = run(capsys, "smp", "solve", SMP3)
    assert calls == ["smp solve"] and out == "patched\n" and report.exit_code == 0


def test_usage_error_exit_code(capsys):
    report = dispatch(["bogus"])
    capsys.readouterr()
    assert report.exit_code == 2


def test_flags_only_where_read(capsys):
    # --seed, --instances, --trials and --max-n belong to repro verify;
    # anywhere else they are usage errors
    for argv in (["smp", "solve", SMP3, "--trials", "3"],
                 ["smp", "solve", SMP3, "--instances", "3"],
                 ["market", "clear", MARKET2, "--seed", "1"],
                 ["smp", "verify", SMP3, "--matching", "(0,0,0)", "--max-n", "3"],
                 ["smp", "enumerate", SMP3, "--max-n", "3"],
                 ["market", "enumerate", MARKET2, "--max-n", "3"],
                 ["repro", "paper-example", "--seed", "7"]):
        report = dispatch(argv)
        capsys.readouterr()
        assert report.exit_code == 2, argv


def test_one_parser_serves_every_command(capsys):
    # the parser is built once per process: a usage error must leave
    # nothing behind for later commands, whose output must equal that of
    # a fresh process
    assert build_parser() is build_parser()
    report = dispatch(["smp", "solve", SMP3, "--side", "sideways"])
    capsys.readouterr()
    assert report.exit_code == 2
    for argv in (["smp", "solve", SMP3], ["market", "clear", MARKET2, "--json"]):
        report, out = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "latmed.cli", *argv],
                               capture_output=True, text=True)
        assert report.exit_code == fresh.returncode == 0
        assert out == fresh.stdout


def test_json_envelope(capsys):
    report, out = run(capsys, "smp", "solve", SMP3, "--json")
    payload = json.loads(out)
    assert set(payload) == {"command", "digest", "results", "violations", "seed"}
    assert payload["command"] == "smp solve"
    assert payload["results"] == ["(0,0,0)"]
    assert payload["violations"] == []
    assert payload["seed"] == 42
    assert len(payload["digest"]) == 12


def market60_twins():
    """Other spellings of market60.txt that parse to the same market."""
    text = Path(MARKET60).read_text()
    header, row0, rest = text.split("\n", 2)
    label, values = row0.split(": ")
    first, others = values.split(" ", 1)  # 78, a two-digit value

    def spelled(v):
        return "\n".join([header, f"{label}: {v} {others}", rest])

    assert header == "market 60 179" and first == "78"
    return text, [
        "\n" + text.replace("\nbuyer 1:", "\n\nbuyer 1:") + "\n\n",  # blank lines
        text.replace("\n", "\r\n"),
        text.replace("buyer 0: ", "buyer  0:  "),  # doubled spaces
        spelled("78 "),  # a doubled space between values
        text.replace("buyer 1: ", "buyer 1:\t"),
        text.replace("\nbuyer 2:", " \nbuyer 2:"),  # a trailing space
        text[:-1],  # no final newline
        spelled("078"), spelled("+78"), spelled("7_8"), spelled("7\u0668"),  # an Arabic-Indic 8
        text.replace("market 60 179\n", "market 60\n"),  # the cap is the largest valuation
    ], spelled("79")


def test_digest_ignores_formatting(capsys, tmp_path):
    # same instance, different spellings: same digest, that of the
    # canonical text; a changed value changes it
    def digests(path, argvs):
        return [json.loads(run(capsys, *argv[:2], str(path), *argv[2:], "--json")[1])["digest"]
                for argv in argvs]

    original = Path(SMP3).read_text()
    messy = tmp_path / "messy.txt"
    messy.write_text("\n" + original.replace("man 0:", "man  0: ") + "\n\n")
    smp = [["smp", "solve"]]
    assert digests(messy, smp) == digests(SMP3, smp)

    text, twins, changed = market60_twins()
    low = json.loads((FIXTURES / "market60.clear.json").read_text())["results"][0][8:]
    prices = tmp_path / "prices.txt"
    prices.write_text(low + "\n")
    market = [["market", "clear"], ["market", "median", "--prices", str(prices), "--j", "1"],
              ["market", "verify", "--prices", low]]
    want = digests(MARKET60, market)
    assert want[0] == hashlib.sha256(text.encode()).hexdigest()[:12]
    twin = tmp_path / "twin.txt"
    for spelling in twins:
        twin.write_bytes(spelling.encode())
        assert digests(twin, market) == want, spelling[:40]
    twin.write_bytes(changed.encode())
    assert all(a and a != b for a, b in zip(digests(twin, market), want))


def test_smp_commands_hash_a_written_file_as_read(capsys, monkeypatch, tmp_path):
    # smp3.txt is as serialize_instance prints it, so no command prints it again
    def refuse(inst):
        raise AssertionError("a written instance serialised again")

    text = Path(SMP3).read_text()
    matchings = tmp_path / "matchings.txt"
    matchings.write_text("(0,0,0)\n(1,1,0)\n")
    monkeypatch.setattr(stable_matching, "serialize_instance", refuse)
    for argv, extra in ((["solve"], ""), (["enumerate"], ""),
                        (["median", "--matchings", str(matchings), "--j", "1"],
                         matchings.read_text()),
                        (["verify", "--matching", "(0,0,0)"], "(0,0,0)\n")):
        report, _ = run(capsys, "smp", argv[0], SMP3, *argv[1:])
        assert report.exit_code == 0, argv
        assert report.digest == hashlib.sha256((text + extra).encode()).hexdigest()[:12]


def test_closed_stdout_ends_without_traceback(tmp_path):
    # 2^13 matchings, far more output than a pipe buffer holds
    path = tmp_path / "cube.txt"
    path.write_text(stable_matching.serialize_instance(block_swap_instance(13)))
    proc = subprocess.Popen([sys.executable, "-m", "latmed.cli", "smp", "enumerate", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait() == 1 and "Traceback" not in stderr, stderr


def test_verify_battery_deterministic(capsys):
    args = ["repro", "verify", "--instances", "8", "--trials", "3"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    assert out1.splitlines()[0] == "rng: mt19937"
    assert out1.splitlines()[-1] == "PASS"
    _, out3 = run(capsys, *args, "--seed", "9")
    assert out3 != out1


def test_verify_zero_trials_empty_report(capsys):
    report, out = run(capsys, "repro", "verify", "--trials", "0")
    assert report.exit_code == 0 and out == ""


def test_verify_rejects_negative_counts(capsys):
    for flags in (["--trials", "-1", "--instances", "2"], ["--instances", "-3"],
                  ["--max-n", "0", "--instances", "2"], ["--max-n", "-5", "--instances", "2"]):
        report, out = run(capsys, "repro", "verify", *flags)
        assert report.exit_code == 1 and out.startswith("OutOfBounds")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latmed.cli", "repro", "paper-example"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("PASS\n")


def test_smp_enumerate_long_cyclic_instance(tmp_path):
    # one rotation moves every man one woman down his list, n times over
    n = 1001
    lines = [f"smp {n}"]
    lines += [f"man {i}: " + " ".join(str((i + r) % n) for r in range(n)) for i in range(n)]
    lines += [f"woman {w}: " + " ".join(str((w + 1 + r) % n) for r in range(n))
              for w in range(n)]
    path = tmp_path / "cyclic.txt"
    path.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "latmed.cli", "smp", "enumerate", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == n


def test_main_returns_exit_code(capsys):
    assert main(["repro", "paper-example"]) == 0
    capsys.readouterr()
