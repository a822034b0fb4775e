"""Fuzzed CLI front end: any input file ends in a report, never a traceback.

Input files are drawn near the accepted formats (bad headers, headers
with tokens past the format's, wrong row lengths, negative or
out-of-range entries, price caps up to 10^6) and as raw bytes.
Valuations are drawn small, so that ties are common, and up to 10^12,
since the auction's rounds do not grow with the valuations. Half the
files respell one integer in a way the readers may accept but the writers
never print: a leading zero or sign, an underscore, a non-ASCII digit or
extra whitespace; files end in one, two or no newlines. An instance
file whose header has more tokens than its format defines must be
refused for that header: the instance is read before anything else.
An smp or market command that accepts a file gives the same report,
digest included, on the canonical serialization of the instance it read,
however the file spelled it; and `parse_instance` and `parse_market` read
every drawn text, or refuse it, as they do that text read line by line,
giving as its digest text what the writer prints of the instance.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from latmed.cli import dispatch
from latmed.market_clearing import parse_market, serialize_market
from latmed.stable_matching import parse_instance, serialize_instance
from test_market_clearing import assert_routes_agree

ENTRY = st.integers(-2, 7)
VALUATION = st.one_of(st.integers(0, 50), st.integers(0, 10**12))
FAULTS = st.sampled_from([None, None, None, "header", "row", "drop"])  # mostly well formed
ENDINGS = st.sampled_from(["\n", "\n", "", "\n\n"])
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")
SPELLINGS = st.sampled_from([
    lambda t: "0" + t, lambda t: "+" + t, lambda t: t[:1] + "_" + t[1:],
    lambda t: t[:-1] + t[-1:].translate(ARABIC_INDIC), lambda t: " " + t, lambda t: "\t" + t,
    lambda t: t + " ",
])


def perturbed(draw, lines, headers, entry, n):
    """`lines` with one of: a bad header, a row off in length or range, or
    a line dropped; or unchanged. Then, half the time, one integer respelled;
    and one, two or no newlines at the end."""
    fault = draw(FAULTS)
    if fault == "header":
        lines[0] = draw(st.sampled_from(headers))
    elif fault == "row":
        i = draw(st.integers(1, len(lines) - 1))
        row = draw(st.lists(entry, min_size=max(0, n - 1), max_size=n + 1))
        lines[i] = lines[i].partition(":")[0] + ": " + " ".join(map(str, row))
    elif fault == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.booleans()):
        respell(draw, lines)
    return "\n".join(lines) + draw(ENDINGS)


def respell(draw, lines):
    """Respell one integer of one line in place, if the line has one."""
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split(" ")
    integers = [k for k, token in enumerate(tokens) if token.isdigit()]
    if integers:
        k = draw(st.sampled_from(integers))
        tokens[k] = draw(SPELLINGS)(tokens[k])
        lines[i] = " ".join(tokens)


@st.composite
def smp_text(draw):
    n = draw(st.integers(1, 5))
    lines = [f"smp {n}"]
    for side in ("man", "woman"):
        lines += [f"{side} {i}: " + " ".join(map(str, draw(st.permutations(range(n)))))
                  for i in range(n)]
    headers = [f"smp {n + 1}", "smp", "smp x", "smp 0", f"smp {n} {n}", f"smp {n} x"]
    return perturbed(draw, lines, headers, ENTRY, n)


@st.composite
def market_text(draw):
    n = draw(st.integers(1, 4))
    cap = draw(st.one_of(st.just(""), st.integers(-3, 12).map(" {}".format),
                         st.integers(0, 10**6).map(" {}".format)))
    lines = [f"market {n}{cap}"]
    lines += [f"buyer {i}: " + " ".join(map(str, draw(st.lists(VALUATION,
                                                                 min_size=n, max_size=n))))
              for i in range(n)]
    headers = [f"market {n + 1}{cap}", "market", f"market {n} x", f"market {n} -1",
               f"market {n} 5 7", f"market {n}{cap} x"]
    return perturbed(draw, lines, headers, st.one_of(st.integers(-1, 50), VALUATION), n)


HEADER_TOKENS = {"smp": 2, "market": 3}  # `smp <n>`, `market <n> [cap]`
READERS = {"smp": (parse_instance, serialize_instance), "market": (parse_market, serialize_market)}


def overlong_header(kind, path):
    """The first non-blank line of the file, if it is a `kind` header with
    more tokens than the format defines; else None."""
    try:
        lines = [s for s in map(str.strip, path.read_text().splitlines()) if s]
    except UnicodeDecodeError:
        return None
    if lines and lines[0].startswith(kind + " ") and len(lines[0].split()) > HEADER_TOKENS[kind]:
        return lines[0]
    return None


def vector(entries):
    return entries.map(lambda v: "(" + ",".join(map(str, v)) + ")")


GARBAGE = st.text(alphabet="(),-0123 x", max_size=8)
VECTOR = st.one_of(vector(st.lists(st.integers(-1, 7), max_size=5)), GARBAGE)


@st.composite
def vectors_text(draw):
    # one shape for most lines, now and then another shape or no vector
    d = draw(st.integers(0, 5))
    same = vector(st.lists(st.integers(0, 9), min_size=d, max_size=d))
    line = st.one_of(same, same, same, VECTOR)
    return "".join(draw(line) + "\n" for _ in range(draw(st.integers(0, 6))))


def as_bytes(text_strategy):
    return st.one_of(text_strategy.map(str.encode), st.binary(max_size=120))


# per command: the strategies for its file and its second file (if any),
# its arguments, where {0} and {1} stand for the files and {v} for a drawn
# vector, and whether it takes --j
COMMANDS = {
    ("lattice", "medians"): (vectors_text(), None, ["--vectors", "{0}"], True),
    ("lattice", "check-regular"): (vectors_text(), None, ["--vectors", "{0}"], False),
    ("smp", "solve"): (smp_text(), None, ["{0}"], False),
    ("smp", "enumerate"): (smp_text(), None, ["{0}"], False),
    ("smp", "verify"): (smp_text(), None, ["{0}", "--matching", "{v}"], False),
    ("smp", "median"): (smp_text(), vectors_text(), ["{0}", "--matchings", "{1}"], True),
    ("market", "clear"): (market_text(), None, ["{0}"], False),
    ("market", "enumerate"): (market_text(), None, ["{0}"], False),
    ("market", "verify"): (market_text(), None, ["{0}", "--prices", "{v}"], False),
    ("market", "median"): (market_text(), vectors_text(), ["{0}", "--prices", "{1}"], True),
}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_cli_never_raises(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    first, second, flags, takes_j = COMMANDS[command]
    work = tmp_path_factory.mktemp("fuzz")
    paths = [work / "a.txt", work / "b.txt"]
    paths[0].write_bytes(data.draw(as_bytes(first)))
    if second is not None:
        paths[1].write_bytes(data.draw(as_bytes(second)))
    drawn = data.draw(VECTOR)
    argv = [*command] + [f.format(*map(str, paths), v=drawn) for f in flags]
    j = data.draw(st.sampled_from([None, -1, 0, 1, 2, 3, 9])) if takes_j else None
    argv += [] if j is None else ["--j", str(j)]  # required by the median commands
    as_json = data.draw(st.booleans())
    argv += ["--json"] if as_json else []

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report = dispatch(argv)
    assert report.exit_code in (0, 1, 2)
    assert report.exit_code == 2 or report.exit_code == bool(report.violations)
    if as_json and report.exit_code != 2:
        assert json.loads(out.getvalue())["violations"] == list(report.violations)
    header = overlong_header(command[0], paths[0]) if command[0] in HEADER_TOKENS else None
    if header is not None and report.exit_code != 2:
        assert report.violations == (f"MalformedFile: bad header {header!r}",)
    if command[0] not in READERS:
        return
    parse, write = READERS[command[0]]
    with contextlib.suppress(UnicodeDecodeError):
        assert_routes_agree(parse, write, paths[0].read_text())
    if report.exit_code == 0:
        # the same report, digest too, on the writer's spelling of the instance:
        # fails if a spelling the writer would not print is hashed as read
        canonical = work / "canonical.txt"
        canonical.write_text(write(parse(paths[0].read_text())[0]))
        with contextlib.redirect_stdout(io.StringIO()):
            again = dispatch([str(canonical) if a == str(paths[0]) else a for a in argv])
        assert again == report
