import hashlib
import io
import json
import sys

import pytest

from yangbaxter import braces, enumeration, fileio, groups, solutions
from yangbaxter.cli import main


@pytest.fixture()
def sol_file(tmp_path, sol4_irr):
    path = tmp_path / "sol.txt"
    path.write_text(fileio.solution_to_text(sol4_irr))
    return str(path)


@pytest.fixture()
def sol5_file(tmp_path, sol5_mp):
    path = tmp_path / "sol57.txt"
    path.write_text(fileio.solution_to_text(sol5_mp))
    return str(path)


@pytest.fixture()
def brace_file(tmp_path):
    A = braces.make_trivial_brace(groups.symmetric_group(3))
    path = tmp_path / "brace.txt"
    path.write_text(fileio.brace_to_text(A))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid_solution(capsys, sol_file):
    code, out, _ = run_cli(capsys, "verify", sol_file)
    assert code == 0
    assert "involutive: true" in out


def test_verify_structured(capsys, sol_file):
    code, out, _ = run_cli(capsys, "verify", sol_file, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert payload["involutive"] is True


def test_verify_corrupted_solution(capsys, tmp_path, sol4_irr):
    text = fileio.solution_to_text(sol4_irr).replace("1 0 2 3", "1 1 2 3", 1)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "non-degenerate" in out


def test_verify_missing_file(capsys):
    code, _, _ = run_cli(capsys, "verify", "/no/such/file.txt")
    assert code == 2


def test_analyze_size5_tower(capsys, sol5_file):
    code, out, _ = run_cli(capsys, "analyze", sol5_file)
    assert code == 0
    assert "multipermutation_level: 3" in out


def test_analyze_size4_irretractable(capsys, sol_file):
    code, out, _ = run_cli(capsys, "analyze", sol_file)
    assert code == 0
    assert "multipermutation_level: none" in out
    assert "indecomposable: true" in out


def test_analyze_brace_r_order(capsys, brace_file):
    code, out, _ = run_cli(capsys, "analyze", brace_file)
    assert code == 0
    assert "solution_order_measured: 12" in out
    assert "solution_order_predicted: 12" in out


def test_enumerate_count_only_involutive(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--size", "4", "--involutive", "--count-only"
    )
    assert code == 0
    assert out.strip() == "23"


def test_enumerate_count_only_all(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--size", "3", "--count-only")
    assert code == 0
    assert "involutive: 5" in out
    assert "non-involutive: 21" in out
    assert "total: 26" in out


@pytest.fixture()
def rebuilds(monkeypatch):
    """The blobs handed to solution_from_canonical while the test runs."""
    calls = []
    rebuild = solutions.solution_from_canonical

    def counting(blob):
        calls.append(blob)
        return rebuild(blob)

    monkeypatch.setattr(solutions, "solution_from_canonical", counting)
    return calls


def test_enumerate_rebuilds_each_class_once(capsys, tmp_path, rebuilds):
    out = tmp_path / "all-3.txt"
    code, _, _ = run_cli(capsys, "enumerate", "--size", "3", "--out", str(out))
    assert code == 0
    assert len(rebuilds) == 26 and len(set(rebuilds)) == 26
    assert out.read_text().count("kind: solution") == 26


def test_enumerate_count_only_rebuilds_no_class(capsys, rebuilds):
    code, out, _ = run_cli(capsys, "enumerate", "--size", "4", "--count-only")
    assert code == 0
    assert "involutive: 23" in out and "non-involutive: 230" in out
    assert rebuilds == []


def test_enumerate_writes_each_record_as_it_rebuilds_its_class(monkeypatch, rebuilds):
    # at each write, the number of classes rebuilt so far: the header goes
    # out before any, and the k-th record right after the k-th rebuild
    seen = []

    class Recording(io.StringIO):
        def write(self, text):
            seen.append((text, len(rebuilds)))
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recording())
    assert main(["enumerate", "--size", "3"]) == 0
    assert [k for text, k in seen if "kind: enumeration-stream" in text] == [0]
    records = [(text.count("kind: solution"), rebuilt)
               for text, rebuilt in seen if "kind: solution" in text]
    assert records == [(1, k) for k in range(1, 27)]


# SHA-256 of the stream files of `ybx enumerate --size 4 --jobs 1` (25,364
# bytes) and `--size 5 --involutive --jobs 2` (12,038 bytes)
STREAM_DIGESTS = {
    ("--size", "4", "--jobs", "1"):
        "425abfec579669d0f41f3f4e7bb19fb6a956cffb053efef65fc129adb989537f",
    ("--size", "5", "--involutive", "--jobs", "2"):
        "28028aa19e543638e54e2416e5ae7c994b9059d644af4d6817869a4bfcb4f5f6",
}


@pytest.mark.parametrize("argv", STREAM_DIGESTS)
def test_enumerate_stream_text_is_pinned(capsys, tmp_path, argv):
    out = tmp_path / "stream.txt"
    code, _, _ = run_cli(capsys, "enumerate", *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STREAM_DIGESTS[argv]


def test_enumerate_stdout_is_the_counts_then_the_stream_file(capsys, tmp_path):
    out = tmp_path / "all-4.txt"
    run_cli(capsys, "enumerate", "--size", "4", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "enumerate", "--size", "4")
    assert code == 0
    *counts, stream = stdout.split("\n", 3)
    assert counts == ["involutive: 23", "non-involutive: 230", "total: 253"]
    assert stream == out.read_text()


def test_enumerate_jobs_determinism(capsys):
    code1, out1, _ = run_cli(
        capsys, "enumerate", "--size", "2", "--count-only", "--jobs", "4"
    )
    code2, out2, _ = run_cli(
        capsys, "enumerate", "--size", "2", "--count-only", "--jobs", "1"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_stream_round_trip(capsys, tmp_path):
    out_file = tmp_path / "stream.txt"
    code, _, _ = run_cli(
        capsys, "enumerate", "--size", "3", "--involutive", "--out", str(out_file)
    )
    assert code == 0
    stream = fileio.parse_text(out_file.read_text())
    assert stream.header.count == 5
    assert len(stream.solutions) == 5
    # round trip: writing the parsed stream again is byte-identical
    again = fileio.stream_to_text(stream.header, stream.solutions)
    assert again == out_file.read_text()


def test_enumerate_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "classes"
    code, _, _ = run_cli(
        capsys, "enumerate", "--size", "2", "--out-dir", str(out_dir)
    )
    assert code == 0
    files = sorted(out_dir.glob("*.txt"))
    assert len(files) == 4
    for f in files:
        fileio.parse_text(f.read_text())  # each one parses as a solution


def test_enumerate_cap_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--size", "9", "--involutive",
                           "--count-only")
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("argv, message", [
    (("--size", "5"), "size 5 exceeds the all-mode cap 4"),
    (("--size", "7", "--involutive"), "size 7 exceeds the involutive-mode cap 6"),
    (("--size", "7", "--cap", "6"), "size 7 exceeds the all-mode cap 6"),
])
def test_enumerate_cap_error_names_the_flag(capsys, argv, message):
    # the library's message speaks of "the cap"; the command names its flag
    code, out, err = run_cli(capsys, "enumerate", *argv, "--count-only")
    assert code == 1 and out == ""
    assert err == f"error: {message}; raise the cap for a long run with --cap {argv[1]}\n"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--size", "0"),
    ("enumerate", "--size", "3", "--jobs", "0"),
    ("growth", "FILE", "--radius", "-1"),
    ("enumerate", "--size", "abc"),
])
def test_out_of_range_flag_is_a_usage_error(capsys, sol_file, argv):
    argv = [sol_file if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and argv[-2] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("pair", [
    ("--count-only", "--out", "F"),
    ("--count-only", "--out-dir", "D"),
    ("--out", "F", "--out-dir", "D"),
])
def test_two_output_flags_are_a_usage_error(capsys, tmp_path, monkeypatch, pair):
    # the counts alone, a stream file and a file per class exclude each other
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--size", "2", *pair])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "not allowed with argument" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--out-dir", "--checkpoint"])
def test_enumerate_unwritable_path_is_an_io_error(capsys, tmp_path, monkeypatch, flag):
    # a path below a regular file can be neither opened nor made, even as root
    blocker = tmp_path / "file"
    blocker.write_text("")
    searches = []
    search = enumeration.enumerate_solutions

    def spy(task):
        searches.append(task)
        return search(task)

    monkeypatch.setattr(enumeration, "enumerate_solutions", spy)
    code, _, err = run_cli(capsys, "enumerate", "--size", "2", flag, str(blocker / "x"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if flag != "--checkpoint":
        assert searches == []


def test_enumerate_failed_run_leaves_the_out_file_whole(capsys, tmp_path):
    out = tmp_path / "stream.txt"
    out.write_text("kept\n")
    code, _, _ = run_cli(capsys, "enumerate", "--size", "9", "--out", str(out))
    assert code == 1
    assert out.read_text() == "kept\n"


def test_repr_prints_matrices(capsys, sol_file):
    code, out, _ = run_cli(capsys, "repr", sol_file)
    assert code == 0
    assert "x_1:" in out
    assert "0 1 0 0 1" in out


def test_repr_rejects_noninvolutive(capsys, tmp_path, sol_3_noninvolutive):
    path = tmp_path / "ni.txt"
    path.write_text(fileio.solution_to_text(sol_3_noninvolutive))
    code, _, err = run_cli(capsys, "repr", str(path))
    assert code == 1
    assert "involutive" in err


def test_growth_with_guess(capsys, tmp_path):
    from yangbaxter import solutions

    path = tmp_path / "triv1.txt"
    path.write_text(fileio.solution_to_text(solutions.make_trivial(1)))
    code, out, _ = run_cli(capsys, "growth", str(path), "--radius", "5", "--guess")
    assert code == 0
    assert "0 1" in out and "5 11" in out
    assert "guess (conjecture): (1 + t) / (1 - 2*t + t^2)" in out


def test_growth_size8_candidate_is_the_z8_ball(capsys, tmp_path, candidate):
    from math import comb

    path = tmp_path / "candidate.txt"
    path.write_text(fileio.solution_to_text(candidate))
    code, out, _ = run_cli(capsys, "growth", str(path), "--radius", "7")
    assert code == 0
    lattice = [sum(2**j * comb(8, j) * comb(k, j) for j in range(9)) for k in range(8)]
    assert out.splitlines() == [f"{k} {v}" for k, v in enumerate(lattice)]
    assert out.endswith("7 108545\n")


def test_upp_falsified_on_size4(capsys, sol_file):
    code, out, _ = run_cli(capsys, "upp", sol_file, "--x", "1 2'", "--y", "1 3'")
    assert code == 0
    assert "FALSIFIED" in out
    assert "multiplicity table" in out


def test_brace_verify_and_analyze(capsys, brace_file):
    code, out, _ = run_cli(capsys, "brace", "verify", brace_file)
    assert code == 0
    assert out == "valid brace of size 6\nabelian type: false\n"
    assert run_cli(capsys, "verify", brace_file) == (0, out, "")
    code, out, _ = run_cli(capsys, "brace", "analyze", brace_file)
    assert code == 0
    assert "right_nilpotency: 2" in out


def test_brace_solution_output_parses(capsys, brace_file):
    code, out, _ = run_cli(capsys, "brace", "solution", brace_file)
    assert code == 0
    parsed = fileio.parse_text(out)
    assert parsed.size == 6


def test_brace_ring_round_trip(capsys, tmp_path):
    A = braces.brace_from_radical_ring(braces.mod4_radical_ring())
    brace_path = tmp_path / "b.txt"
    brace_path.write_text(fileio.brace_to_text(A))
    code, out, _ = run_cli(capsys, "brace", "ring", str(brace_path))
    assert code == 0
    ring = fileio.parse_text(out)
    ring_path = tmp_path / "r.txt"
    ring_path.write_text(fileio.ring_to_text(ring))
    code, out, _ = run_cli(capsys, "brace", "ring", str(ring_path))
    assert code == 0
    back = fileio.parse_text(out)
    assert back.add == A.add and back.mul == A.mul


def test_brace_ring_rejects_one_sided(capsys, tmp_path):
    # a brace that is not two-sided: order 6 with nonabelian multiplicative part
    from yangbaxter.enumeration import enumerate_braces

    one_sided = next(
        A for A in enumerate_braces(6)
        if not braces.is_two_sided(A)
    )
    path = tmp_path / "os.txt"
    path.write_text(fileio.brace_to_text(one_sided))
    code, _, err = run_cli(capsys, "brace", "ring", str(path))
    assert code == 1


def test_checkpoint_flag_stores_every_subtree(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "enumerate", "--size", "3", "--involutive", "--count-only",
        "--checkpoint", str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "5"
    from yangbaxter.enumeration import subtree_tasks

    tasks = subtree_tasks(3, "involutive")
    assert len(list(tmp_path.glob("involutive-n3-task*.json"))) == len(tasks)


def test_version_1_checkpoint_is_refused(capsys, tmp_path):
    # the tasks changed with each version; the first task's file is read
    (tmp_path / "involutive-n3-task0000.json").write_text(json.dumps(
        {"version": 1, "mode": "involutive", "size": 3, "task": [0, 0], "classes": []}
    ))
    code, _, err = run_cli(
        capsys, "enumerate", "--size", "3", "--involutive", "--checkpoint", str(tmp_path)
    )
    assert code == 2
    assert "does not match this run" in err


def test_growth_radius_4_notes_guess_needs_more(capsys, tmp_path):
    from yangbaxter import solutions

    path = tmp_path / "triv1.txt"
    path.write_text(fileio.solution_to_text(solutions.make_trivial(1)))
    code, out, _ = run_cli(capsys, "growth", str(path), "--radius", "4", "--guess")
    assert code == 0
    assert "4 9" in out
    assert "radius >= 5" in out


# ---------------------------------------------------------------------------
# one failure rule: every file subcommand on every kind of input

# the inputs each subcommand accepts; it refuses the other records with exit
# code 1, and a missing, undecodable or malformed file with exit code 2
ACCEPTS = {
    "verify": {"involutive", "non-involutive", "brace", "ring"},
    "analyze": {"involutive", "non-involutive", "brace"},
    "repr": {"involutive"},
    "growth": {"involutive"},
    "upp": {"involutive"},
    "brace verify": {"brace"},
    "brace analyze": {"brace"},
    "brace solution": {"brace"},
    "brace ring": {"brace", "ring"},
}
EXTRA_ARGS = {"growth": ["--radius", "2"], "upp": ["--x", "1 2'", "--y", "1 3'"]}
UNREADABLE = ["missing", "undecodable", "malformed"]
INPUTS = [*UNREADABLE, "invalid solution", "invalid brace",
          "involutive", "non-involutive", "brace", "ring"]


@pytest.fixture(scope="module")
def record_files(tmp_path_factory, sol4_irr, sol_3_noninvolutive):
    brace = braces.brace_from_radical_ring(braces.mod4_radical_ring())
    brace_text = fileio.brace_to_text(brace)
    assert "mul:\n0 1 2 3\n" in brace_text
    texts = {
        "malformed": "kind: solution\nsize: two\n",
        "invalid solution":
            fileio.solution_to_text(sol4_irr).replace("1 0 2 3", "1 1 2 3", 1),
        "invalid brace": brace_text.replace("mul:\n0 1 2 3\n", "mul:\n0 1 2 2\n", 1),
        "involutive": fileio.solution_to_text(sol4_irr),
        "non-involutive": fileio.solution_to_text(sol_3_noninvolutive),
        "brace": brace_text,
        "ring": fileio.ring_to_text(braces.mod4_radical_ring()),
    }
    root = tmp_path_factory.mktemp("records")
    (root / "undecodable").write_bytes(b"kind: solution\nsize: 1\n\xff\n")
    for name, text in texts.items():
        (root / name.replace(" ", "-")).write_text(text)
    return {name: str(root / name.replace(" ", "-")) for name in INPUTS}


@pytest.mark.parametrize("record", INPUTS)
@pytest.mark.parametrize(
    "command, structured",
    [*((command, False) for command in ACCEPTS), ("verify", True), ("analyze", True)],
    ids=[*ACCEPTS, "verify-structured", "analyze-structured"],
)
def test_exit_code_and_stream(capsys, record_files, command, structured, record):
    argv = [*command.split(), record_files[record], *EXTRA_ARGS.get(command, [])]
    if structured:
        argv += ["--format", "structured"]
    code, out, err = run_cli(capsys, *argv)

    if record in ACCEPTS[command]:
        assert (code, err) == (0, "") and out
        return
    assert code == (2 if record in UNREADABLE else 1)
    # verify and analyze report a failure on stdout, the others on stderr
    report, other = (out, err) if command in ("verify", "analyze") else (err, out)
    assert other == "" and report.count("\n") == 1
    if structured:
        payload = json.loads(report)
        assert payload["ok"] is False and payload["schema"] == 1
        assert set(payload) == {
            "ok", "schema", "diagnostic" if record.startswith("invalid") else "error"
        }
    elif record in UNREADABLE:
        assert report.startswith("parse error: ")
    elif record.startswith("invalid"):
        assert report.startswith("invalid: ")
