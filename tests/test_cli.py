"""The command-line interface: golden outputs and exit codes."""

import hashlib
import os
import re
import resource
import subprocess
import sys
import threading

import pytest

from covertt import cli, cover, surface, typecheck
from covertt.cli import _on_large_stack, main
from covertt.semantics import KernelBug
from covertt.surface import parse_file

from helpers import nested_identity, write_corpus

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "covertt", "corpus")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_ok(capsys, tmp_path):
    f = tmp_path / "ok.mltt"
    f.write_text("def id : (A : U0) -> A -> A := fun A => fun x => x\n")
    code, out = run(capsys, "check", str(f))
    assert code == 0
    assert out == "ok id\n"


def test_check_reports_error_and_fails(capsys, tmp_path):
    f = tmp_path / "bad.mltt"
    f.write_text("def bad : U0 := U0\n")
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert out.startswith("error bad")
    assert "not-a-universe" in out


def test_check_corpus_file_with_flags(capsys):
    code, out = run(
        capsys, "check", os.path.join(CORPUS, "p41ii.mltt"), "--eta-pi", "--eta-sigma"
    )
    assert code == 0
    assert "ok elimDWp" in out


def test_norm(capsys, tmp_path):
    f = tmp_path / "defs.mltt"
    f.write_text(
        "def two : U0 := Sum N1 N1\n"
        "def swap : two -> two := fun b => case (fun z => two) (fun u => inr u) (fun u => inl u) b\n"
    )
    code, out = run(capsys, "norm", str(f), "--expr", "swap (inl star)")
    assert code == 0
    assert out == "inr star\n"


def test_conv_eta_dependence(capsys):
    args = [
        "conv", "f", "fun x => f x",
        "--type", "A -> A",
        "--context", "A : U0, f : A -> A",
    ]
    code, out = run(capsys, *args)
    assert code == 1 and out == "not convertible\n"
    code, out = run(capsys, *args, "--eta-pi")
    assert code == 0 and out == "convertible\n"


def test_conv_tells_the_funext_constant_from_a_variable(capsys):
    """A neutral headed by the funext constant equals only one headed by
    that constant."""
    ft = surface.pretty(typecheck.funext_type())
    code, out = run(
        capsys, "conv", "funext", "g", "--type", ft, "--context", f"g : {ft}", "--funext"
    )
    assert code == 1 and out == "not convertible\n"
    code, out = run(capsys, "conv", "funext", "funext", "--type", ft, "--funext")
    assert code == 0 and out == "convertible\n"


def test_conv_requires_well_typed_input(capsys):
    code, out = run(capsys, "conv", "star", "star", "--type", "N0")
    assert code == 1
    assert out.startswith("error:")


def test_corpus_exit_status_and_order(capsys):
    code, out = run(capsys, "corpus", "--eta-pi", "--eta-sigma", "--eta-unit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS prelude prelude.mltt"
    assert lines[-1] == "PASS T6.1 t61.mltt"
    assert not any(l.startswith("FAIL") for l in lines)


def test_corpus_skip_reporting(capsys):
    code, out = run(capsys, "corpus")
    assert code == 0
    assert "SKIP P4.1ii p41ii.mltt (needs eta_pi eta_sigma)" in out


def test_cover_command(capsys, tmp_path):
    f = tmp_path / "two.cov"
    f.write_text("carrier a b\naxiom a i : b\nsubset V : b\nquery a V\nquery b E\nsubset E :\n")
    # subset declared after use: format error with line number
    code, out = run(capsys, "cover", str(f))
    assert code == 1
    assert out.startswith("error: two.cov:5: ")

    f.write_text("carrier a b\naxiom a i : b\nsubset V : b\nsubset E :\nquery a V\nquery b E\n")
    code, out = run(capsys, "cover", str(f))
    assert code == 0
    assert out == "a V covered\nb E uncovered\n"
    code, out = run(capsys, "cover", str(f), "--derivations")
    assert out == "a V covered\n  tr a i\n    rf b\nb E uncovered\n"


def test_norm_of_a_let(capsys):
    code, out = run(capsys, "norm", "--expr", "let x : U0 := N1 in (star : x)")
    assert (code, out) == (0, "star\n")
    code, out = run(capsys, "norm", "--expr", "let x : N0 := star in x")
    assert code == 1
    assert out.splitlines()[0] == "error: <expr>: mismatch: type mismatch"
    assert sum(line.startswith("error:") for line in out.splitlines()) == 1


def test_norm_expression_with_eta(capsys, tmp_path):
    f = tmp_path / "defs.mltt"
    f.write_text("def C : U0 := N1 -> N1\ndef g : C -> C := fun h => h\n")
    code, out = run(capsys, "norm", str(f), "--expr", "g", "--eta-pi")
    assert code == 0
    assert out.startswith("fun ")


def test_check_reports_an_exhausted_budget(capsys, tmp_path, small_budget):
    f = tmp_path / "deep.mltt"
    f.write_text(f"def small : N1 := star\ndef deep : N1 := {nested_identity(150)}\n")
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert out == "ok small\nerror: deep.mltt:2: deep: evaluation exceeded 100 eliminator steps\n"


def test_norm_reports_an_exhausted_budget(capsys, small_budget):
    code, out = run(capsys, "norm", "--expr", nested_identity(150))
    assert code == 1
    assert out == "error: evaluation exceeded 100 eliminator steps\n"


def test_conv_reports_an_exhausted_budget(capsys, small_budget):
    code, out = run(capsys, "conv", nested_identity(150), "star", "--type", "N1")
    assert code == 1
    assert out == "error: evaluation exceeded 100 eliminator steps\n"


def test_each_declaration_gets_the_whole_budget(capsys, tmp_path, small_budget):
    """Two declarations of 55 steps each pass under a 100-step budget, in
    ``check_declarations`` and in ``covertt check``."""
    src = f"def a : N1 := {nested_identity(55)}\ndef b : N1 := {nested_identity(55)}\n"
    decls, _ = parse_file(src)
    assert typecheck.check_declarations(decls).ev.steps == 110
    f = tmp_path / "two.mltt"
    f.write_text(src)
    assert run(capsys, "check", str(f)) == (0, "ok a\nok b\n")


def test_corpus_reports_a_missing_manifest(capsys, tmp_path):
    code, out = run(capsys, "corpus", "--corpus-dir", str(tmp_path / "nowhere"))
    assert code == 1
    assert out.startswith("error: [Errno 2] No such file or directory: ")
    assert out.count("\n") == 1


def test_corpus_reports_a_malformed_manifest(capsys, tmp_path):
    base = write_corpus(tmp_path, "ok ok.mltt\nlonely\n", {"ok.mltt": "def x : N1 := star\n"})
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (1, f"error: {base}/manifest:2: expected a tag and a file name\n")


def test_corpus_reports_an_unknown_manifest_flag(capsys, tmp_path):
    base = write_corpus(tmp_path, "ok ok.mltt eta_foo\n", {"ok.mltt": "def x : N1 := star\n"})
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (1, f"error: {base}/manifest:1: unknown flags: ['eta_foo']\n")


def test_corpus_reports_a_manifest_that_is_not_utf8(capsys, tmp_path):
    base = write_corpus(tmp_path, "", {"ok.mltt": "def x : N1 := star\n"})
    (tmp_path / "manifest").write_bytes(b"ok ok.mltt\n# caf\xe9\n")
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (1, f"error: {base}/manifest:2:6: byte 0xe9 is not UTF-8 text\n")


def test_corpus_reports_a_missing_entry_as_failed(capsys, tmp_path):
    base = write_corpus(tmp_path, "ok ok.mltt\ngone gone.mltt\n", {"ok.mltt": "def x : N1 := star\n"})
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert code == 1
    ok, gone = out.splitlines()
    assert ok == "PASS ok ok.mltt"
    assert gone.startswith("FAIL gone gone.mltt: [Errno 2] No such file or directory: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{}"),
        ("norm", "{}", "--expr", "star"),
        ("conv", "star", "star", "--type", "N1", "--file", "{}"),
    ],
)
def test_a_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path, argv):
    f = tmp_path / "latin.mltt"
    f.write_bytes(b"def x : N1 := star\n-- caf\xe9\n")
    code, out = run(capsys, *[a.format(f) for a in argv])
    assert (code, out) == (1, "error: latin.mltt:2:7: byte 0xe9 is not UTF-8 text\n")


def test_a_cover_format_error_names_the_file_and_line(capsys, tmp_path):
    f = tmp_path / "bad.cov"
    f.write_text("carrier a b\naxiom zz i : a\n")
    assert run(capsys, "cover", str(f)) == (1, "error: bad.cov:2: unknown atom 'zz'\n")


@pytest.mark.parametrize("query", ["query a", "query a V extra"])
def test_a_malformed_query_line_is_reported_as_one(capsys, tmp_path, query):
    f = tmp_path / "q1.cov"
    f.write_text(f"carrier a b\n{query}\n")
    want = "error: q1.cov:2: malformed query line (expected 'query a V')\n"
    assert run(capsys, "cover", str(f)) == (1, want)


def test_a_cover_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path):
    f = tmp_path / "bad.cov"
    f.write_bytes(b"carrier a\n\xff\n")
    assert run(capsys, "cover", str(f)) == (1, "error: bad.cov:2:1: byte 0xff is not UTF-8 text\n")


def test_corpus_fails_only_the_entry_that_is_not_utf8(capsys, tmp_path):
    base = write_corpus(
        tmp_path, "ok ok.mltt\nbad bad.mltt\nuse use.mltt\n",
        {"ok.mltt": "def x : N1 := star\n", "use.mltt": "def y : N1 := star\n"},
    )
    (tmp_path / "bad.mltt").write_bytes(b"def z : N1 := star \xff\n")
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (
        1, "PASS ok ok.mltt\n"
        "FAIL bad bad.mltt: bad.mltt:1:20: byte 0xff is not UTF-8 text\n"
        "PASS use use.mltt\n"
    )


def test_corpus_reports_an_exhausted_budget_as_failed(capsys, tmp_path, small_budget):
    base = write_corpus(
        tmp_path,
        "deep deep.mltt\nok ok.mltt\n",
        {"deep.mltt": f"def deep : N1 := {nested_identity(150)}\n", "ok.mltt": "def x : N1 := star\n"},
    )
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (
        1, "FAIL deep deep.mltt: deep.mltt:1: deep: evaluation exceeded 100 eliminator steps\n"
        "PASS ok ok.mltt\n"
    )


# ``r``'s value holds the recursor closure that ``elimW`` builds on a
# two-node tree.  Applying ``r`` forces it, which evaluates the lower node,
# a numeral built by iterating ``succ`` four times: ``r star`` takes 73 steps.
RECURSOR_BASE = """\
def B : Sum N1 N1 -> U0 := fun x => case (fun y => U0) (fun u => N0) (fun u => N1) x
def Nat : U0 := W (Sum N1 N1) B
def zero : Nat := sup (inl star) (fun e => absurd (fun z => Nat) e)
def succ : Nat -> Nat := fun n => sup (inr star) (fun u => n)
def twice : (A : U0) -> (A -> A) -> A -> A := fun A => fun f => fun x => f (f x)
def r : N1 -> N1 :=
  elimW (fun w => N1 -> N1)
    (fun a => fun f => fun h => fun u =>
      case (fun a2 => (B a2 -> N1 -> N1) -> N1 -> N1)
        (fun v => fun g => fun u2 => u2) (fun v => fun g => fun u2 => g star u2) a h u)
    (sup (inr star) (fun u => twice (Nat -> Nat) (twice Nat) succ zero) : Nat)
def last : N1 := star
"""


def test_corpus_charges_a_forced_imported_recursor_to_the_importing_declaration(
    capsys, tmp_path, small_budget
):
    """Forcing ``r``'s recursor closure takes under 100 steps (73), and so
    does ``use`` without it (40); together they exhaust ``use``'s budget,
    so the closure's steps are charged to ``use`` and not to whatever
    evaluator built ``r``."""
    base = write_corpus(tmp_path, "base base.mltt\nuse use.mltt\n", {
        "base.mltt": RECURSOR_BASE,
        "use.mltt": f'import "base.mltt"\ndef use : N1 := r ({nested_identity(40)})\n',
    })
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (
        1, "PASS base base.mltt\n"
        "FAIL use use.mltt: use.mltt:2: use: evaluation exceeded 100 eliminator steps\n"
    )


def chain_file(tmp_path, n: int):
    """A chain c0 <- c1 <- ... <- c(n-1) whose top atom is covered, and one
    query, of c0."""
    lines = ["carrier " + " ".join(f"c{i}" for i in range(n))]
    lines += [f"axiom c{i} k : c{i + 1}" for i in range(n - 1)]
    lines += [f"subset top : c{n - 1}", "query c0 top"]
    f = tmp_path / "chain.cov"
    f.write_text("\n".join(lines) + "\n")
    return f


def test_cover_derivations_on_a_20000_atom_chain(tmp_path):
    n = 20_000
    f = chain_file(tmp_path, n)
    env = dict(os.environ, PYTHONPATH=SRC)
    # the report is about 400 MB (line k is indented 2k spaces): read it
    # from the pipe line by line instead of holding it; a run that takes
    # over two minutes is killed, which ends the stream early
    with subprocess.Popen(
        [sys.executable, "-m", "covertt.cli", "cover", str(f), "--derivations"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    ) as proc:
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            out = iter(proc.stdout)
            assert next(out, None) == "c0 top covered\n"
            for i in range(n - 1):
                assert next(out, None) == "  " * (i + 1) + f"tr c{i} k\n"
            assert next(out, None) == "  " * n + f"rf c{n - 1}\n"
            assert next(out, None) is None
            assert proc.wait() == 0, proc.stderr.read()
        finally:
            watchdog.cancel()
    # the report is printed as it is made: the child never holds it (the
    # figure is the largest child this test process has waited for)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert peak_mb < 200


def covertt(*argv: str) -> tuple:
    """``covertt ARGV`` in a process of its own: exit status, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "covertt.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


# past the parser's reach under the recursion limit ``main`` sets (it stops
# near 20,000 levels of nesting)
TOO_DEEP = nested_identity(30_000)
TOO_DEEP_ERROR = r"deep\.mltt:2:\d+: input nested too deeply"


def test_check_locates_input_nested_too_deeply_to_parse(tmp_path):
    f = tmp_path / "deep.mltt"
    f.write_text(f"def small : N1 := star\ndef deep : N1 := {TOO_DEEP}\n")
    code, out, err = covertt("check", str(f))
    assert (code, err) == (1, "")
    assert re.fullmatch(f"error: {TOO_DEEP_ERROR}\n", out), out[:200]


def test_corpus_fails_only_the_entry_nested_too_deeply_to_parse(tmp_path):
    base = write_corpus(tmp_path, "a ok.mltt\ndeep deep.mltt\nb ok.mltt\n", {
        "deep.mltt": f"def small : N1 := star\ndef deep : N1 := {TOO_DEEP}\n",
        "ok.mltt": "def x : N1 := star\n",
    })
    code, out, err = covertt("corpus", "--corpus-dir", base)
    assert (code, err) == (1, "")
    first, failed, last = out.splitlines()
    assert (first, last) == ("PASS a ok.mltt", "PASS b ok.mltt")
    assert re.fullmatch(f"FAIL deep deep.mltt: {TOO_DEEP_ERROR}", failed), failed[:200]


def test_a_command_on_a_large_stack_returns_or_raises_what_it_would(capsys, tmp_path, monkeypatch):
    """``main`` runs the command on a thread of its own, or on the caller's
    where none can start: either way the status comes back, and what the
    command raises, argparse's exit included, is raised again in the caller."""
    f = tmp_path / "ok.mltt"
    f.write_text("def x : N1 := star\n")
    previous = threading.stack_size()
    for started in (True, False):
        if not started:
            monkeypatch.setattr(threading.Thread, "start", raiser(RuntimeError("can't start new thread")))
        assert (_on_large_stack(threading.current_thread) is threading.current_thread()) is not started
        assert (main(["check", str(f)]), capsys.readouterr().out) == (0, "ok x\n")
        with pytest.raises(SystemExit) as e:
            main(["nonsense"])
        assert e.value.code == 2
        with pytest.raises(ValueError, match="raised"):
            _on_large_stack(raiser(ValueError("raised")))
        assert threading.stack_size() == previous


def test_norm_of_a_3000_deep_nesting_ends_within_the_budget():
    """Checking it takes no steps and evaluating it 3,000."""
    assert covertt("norm", "--expr", nested_identity(3_000)) == (0, "star\n", "")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["cover", "check"])
def test_a_reader_that_closes_early_ends_the_run_without_a_traceback(tmp_path, command, unbuffered):
    # both reports outgrow one buffered write, so more is written after the
    # reader has gone: the chain's derivation is about 360 KB, and p51i's
    # report under funext (28,591 bytes) is printed while it is checked
    argv = {
        "cover": ["cover", str(chain_file(tmp_path, 600)), "--derivations"],
        "check": ["check", os.path.join(CORPUS, "p51i.mltt"), "--funext"],
    }[command]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen(
        [sys.executable, "-m", "covertt.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")


INTERNAL = [
    (RecursionError("maximum recursion depth exceeded"), "input nested too deeply"),
    (KernelBug("eval: unhandled term"), "internal kernel error"),
]


def raiser(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


@pytest.mark.parametrize("exc, what", INTERNAL)
def test_check_reports_an_internal_failure_naming_the_declaration(capsys, tmp_path, monkeypatch, exc, what):
    f = tmp_path / "deep.mltt"
    f.write_text("def small : N1 := star\ndef deep : N1 := star\n")
    check = typecheck.check_declarations

    def check_declarations(decls, *args):
        if decls[0].name == "deep":
            raise exc
        return check(decls, *args)

    monkeypatch.setattr(typecheck, "check_declarations", check_declarations)
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert out == f"ok small\nerror: deep.mltt:2: deep: {what} ({exc})\n"


@pytest.mark.parametrize("exc, what", INTERNAL)
def test_norm_conv_cover_report_an_internal_failure(capsys, tmp_path, monkeypatch, exc, what):
    monkeypatch.setattr(typecheck, "normalize", raiser(exc))
    monkeypatch.setattr(typecheck, "convertible", raiser(exc))
    monkeypatch.setattr(cover, "iter_queries", raiser(exc))
    f = tmp_path / "two.cov"
    f.write_text("carrier a b\nsubset V : b\nquery a V\n")
    for argv in (["norm", "--expr", "star"], ["conv", "star", "star", "--type", "N1"], ["cover", str(f)]):
        code, out = run(capsys, *argv)
        assert (code, out) == (1, f"error: {what} ({exc})\n"), argv


def test_running_out_of_memory_is_one_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cover, "load_axiom_set", raiser(MemoryError()))
    monkeypatch.setattr(typecheck, "check_declarations", raiser(MemoryError()))
    f = tmp_path / "two.cov"
    f.write_text("carrier a b\nsubset V : b\nquery a V\n")
    g = tmp_path / "one.mltt"
    g.write_text("def x : N1 := star\n")
    for argv in (["cover", str(f)], ["check", str(g)], ["norm", str(g), "--expr", "x"]):
        assert run(capsys, *argv) == (1, "error: out of memory\n"), argv


def test_any_other_exception_is_one_internal_error_line(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_norm", raiser(SystemError("x")))
    assert main(["norm", "--expr", "star"]) == 1
    assert capsys.readouterr() == ("error: internal error (SystemError: x)\n", "")
    # an interrupt is not a fault of the program: it reaches the caller
    monkeypatch.setattr(cli, "cmd_norm", raiser(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["norm", "--expr", "star"])


@pytest.mark.parametrize("exc, what", INTERNAL)
def test_corpus_fails_only_the_entry_whose_check_stops(capsys, tmp_path, monkeypatch, exc, what):
    base = write_corpus(tmp_path, "a ok.mltt\nmid mid.mltt\nb ok.mltt\n", {
        "ok.mltt": "def x : N1 := star\n",
        "mid.mltt": "def small : N1 := star\ndef deep : N1 := star\n",
    })
    check = typecheck.check_declarations

    def check_declarations(decls, *args, **kwargs):
        if decls[0].name == "deep":
            raise exc
        return check(decls, *args, **kwargs)

    monkeypatch.setattr(typecheck, "check_declarations", check_declarations)
    code, out = run(capsys, "corpus", "--corpus-dir", base)
    assert (code, out) == (
        1, "PASS a ok.mltt\n"
        f"FAIL mid mid.mltt: mid.mltt:2: deep: {what} ({exc})\n"
        "PASS b ok.mltt\n"
    )


# what stops the check of a 150-deep declaration: the 100-step budget, or
# one of INTERNAL raised in its place
STOPPED = [(None, "evaluation exceeded 100 eliminator steps")] + [
    (exc, f"{what} ({exc})") for exc, what in INTERNAL
]


@pytest.mark.parametrize(
    "argv",
    [["norm", "FILE", "--expr", "star"], ["conv", "star", "star", "--type", "N1", "--file", "FILE"]],
    ids=["norm", "conv"],
)
@pytest.mark.parametrize("exc, text", STOPPED, ids=["budget", "recursion", "kernel"])
def test_norm_and_conv_name_the_file_declaration_whose_check_stops(
    capsys, tmp_path, monkeypatch, small_budget, argv, exc, text
):
    """As ``check`` names it."""
    f = tmp_path / "deep.mltt"
    f.write_text(f"def small : N1 := star\ndef deep : N1 := {nested_identity(150)}\n")
    if exc is not None:
        check = typecheck.check_declarations

        def check_declarations(decls, *args):
            if decls[0].name == "deep":
                raise exc
            return check(decls, *args)

        monkeypatch.setattr(typecheck, "check_declarations", check_declarations)
    code, out = run(capsys, *(str(f) if a == "FILE" else a for a in argv))
    assert (code, out) == (1, f"error: deep.mltt:2: deep: {text}\n")


def test_context_gets_a_budget_of_its_own(capsys, tmp_path, small_budget):
    """Not what the file's last declaration left: that takes all 100 steps,
    and the context item one more."""
    f = tmp_path / "full.mltt"
    f.write_text(f"def full : N1 := {nested_identity(100)}\n")
    code, out = run(
        capsys, "conv", "x", "x", "--type", "N1", "--file", str(f),
        "--context", "x : (fun A => A : U0 -> U0) N1",
    )
    assert (code, out) == (0, "convertible\n")


def test_malformed_context_item_is_an_error_line_on_stdout(capsys):
    code = main(["conv", "x", "x", "--type", "A", "--context", "A U0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "error: <context>:1:3: unexpected keyword 'U0' (expected one of: :)\n"
    assert captured.err == ""


def test_context_parse_errors_are_located_in_the_whole_string(capsys):
    code, out = run(capsys, "conv", "x", "x", "--type", "A", "--context", "A : U0, x : (A -> ")
    assert (code, out) == (1, "error: <context>:1:19: unexpected eof '' (expected one of: term)\n")
    code, out = run(capsys, "conv", "x", "x", "--type", "A", "--context", "A : U0,\n x : (A @ A)")
    assert (code, out) == (1, "error: <context>:2:9: stray character '@'\n")


def test_context_items_split_at_commas_outside_parentheses(capsys):
    ty = "Id (N1 * N1) (star , star) (star , star)"
    code, out = run(capsys, "conv", "p", "p", "--type", ty, "--context", f"p : {ty}")
    assert (code, out) == (0, "convertible\n")
    code, out = run(
        capsys, "conv", "q", "q", "--type", "Id (N1 * N1) (fst ((star, star) : N1 * N1), star) (star, star)",
        "--context", "A : U0, q : Id (N1 * N1) (star, star) (star, star), B : A -> A",
    )
    assert (code, out) == (0, "convertible\n")


def test_expression_errors_are_located_at_the_expression(capsys, tmp_path):
    f = tmp_path / "a.mltt"
    f.write_text("def x : N1 := star\n")
    code, out = run(capsys, "norm", str(f), "--expr", "y")
    assert code == 1 and out == "error: <expr>: unbound: unknown name 'y'\n"
    code, out = run(capsys, "conv", "x", "y", "--type", "N1", "--file", str(f))
    assert code == 1 and out == "error: <expr>: unbound: unknown name 'y'\n"
    code, out = run(capsys, "conv", "x", "x", "--type", "B", "--file", str(f))
    assert code == 1 and out == "error: <expr>: unbound: unknown name 'B'\n"
    code, out = run(
        capsys, "conv", "z", "z", "--type", "A", "--file", str(f), "--context", "A : U0, z : B"
    )
    assert code == 1 and out == "error: <context>: unbound: unknown name 'B'\n"


def test_trailing_input_after_an_expression_is_located(capsys):
    code, out = run(capsys, "norm", "--expr", "star )")
    assert (code, out) == (1, "error: 1:6: trailing input after term\n")


# a bare family former: a value of the large function type N1 -> U0
WP_FAMILY = "(WP N1 (fun x => N1) (fun x => fun n => fun y => {}) : N1 -> U0)"


def test_norm_reads_back_a_bare_family_former(capsys):
    code, out = run(capsys, "norm", "--expr", WP_FAMILY.format("N0"))
    assert (code, out) == (0, "WP N1 (fun x0 => N1) (fun x0 => fun x1 => fun x2 => N0)\n")


@pytest.mark.parametrize("other, verdict", [
    ("(WP N1 (fun a => N1) (fun a => fun b => fun c => N0) : N1 -> U0)", "convertible"),
    (WP_FAMILY.format("N1"), "not convertible"),
], ids=["renamed", "N1 for N0"])
def test_conv_compares_bare_family_formers(capsys, other, verdict):
    code, out = run(capsys, "conv", WP_FAMILY.format("N0"), other, "--type", "N1 -> U0")
    assert (code, out) == (int(verdict != "convertible"), verdict + "\n")


def test_importing_the_cli_loads_no_code_generation_modules():
    # modules that ``site`` loaded before the import do not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import covertt.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


# what a run of each command loads of the package, beside ``covertt``,
# ``covertt.cli`` and ``covertt.terms``: only the modules it runs
KERNEL = {"surface", "typecheck", "semantics"}
# a file is checked as the corpus checks an entry, by ``encodings``
COMMAND_MODULES = [
    (["check", "FILE"], KERNEL | {"encodings"}),
    (["norm", "FILE", "--expr", "x"], KERNEL | {"encodings"}),
    (["conv", "x", "x", "--type", "N1", "--file", "FILE"], KERNEL | {"encodings"}),
    (["corpus", "--corpus-dir", "DIR"], KERNEL | {"encodings"}),
    (["cover", "COV"], {"surface", "cover"}),
]
_RUN_AND_LIST_MODULES = (
    "import contextlib, io, sys\n"
    "before = set(sys.modules)\n"
    "from covertt.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    status = main(sys.argv[1:])\n"
    "print(status, sorted(m for m in set(sys.modules) - before if m.startswith('covertt')))\n"
)


@pytest.mark.parametrize("argv, loaded", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    assert_loads(tmp_path, argv, loaded)


@pytest.mark.parametrize("argv", [
    ["norm", "--expr", "star"],
    ["conv", "x", "x", "--type", "A", "--context", "A : U0, x : A"],
], ids=["norm", "conv"])
def test_norm_and_conv_without_a_file_load_only_the_kernel(tmp_path, argv):
    assert_loads(tmp_path, argv, KERNEL)


def assert_loads(tmp_path, argv, loaded):
    base = write_corpus(tmp_path, "one one.mltt\n", {
        "one.mltt": "def x : N1 := star\n",
        "two.cov": "carrier a b\nsubset V : b\nquery a V\n",
    })
    paths = {"FILE": os.path.join(base, "one.mltt"), "DIR": base, "COV": os.path.join(base, "two.cov")}
    argv = [paths.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    expected = sorted({"covertt", "covertt.cli", "covertt.terms"} | {f"covertt.{m}" for m in loaded})
    assert out == f"0 {expected}\n"


SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
ALL_FLAGS = ("--eta-pi", "--eta-sigma", "--eta-unit", "--funext")
REPORT_FLAG_SETS = [(), ("--funext",), ALL_FLAGS[:3], ALL_FLAGS]
# sha256 of the transcript ``golden_reports`` builds, and its size in bytes
REPORTS_SHA256 = "be0b3072261f32330c6f715fbd02d1c6298f6b4bb7b64ec8db1120eaeae063e3"
REPORTS_BYTES = 47_793


def golden_reports(capsys) -> str:
    """Every report a kernel change must leave byte-identical: ``corpus``
    under the four flag sets, ``check`` of every corpus file with no flags,
    with ``--funext`` and with all four, and ``cover --derivations`` of the
    sample.  Each run adds its command (file names without their
    directories), its exit status and its output."""
    runs = [("corpus", *flags) for flags in REPORT_FLAG_SETS]
    for name in sorted(f for f in os.listdir(CORPUS) if f.endswith(".mltt")):
        for flags in ((), ("--funext",), ALL_FLAGS):
            runs.append(("check", os.path.join(CORPUS, name), *flags))
    runs.append(("cover", os.path.join(SAMPLES, "two_atoms.cov"), "--derivations"))
    parts = []
    for argv in runs:
        code, out = run(capsys, *argv)
        shown = " ".join(os.path.basename(a) for a in argv)
        parts.append(f"$ {shown}\nexit {code}\n{out}")
    return "".join(parts)


def test_the_reports_are_pinned(capsys):
    """A kernel change that is not meant to change any output moves none of
    these bytes; a deliberate output change re-pins the digest."""
    transcript = golden_reports(capsys).encode()
    assert (hashlib.sha256(transcript).hexdigest(), len(transcript)) == (
        REPORTS_SHA256,
        REPORTS_BYTES,
    )
