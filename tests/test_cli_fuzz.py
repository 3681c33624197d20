"""Fuzz the command line from the parser's own tree: every leaf of
``build_parser()`` and every action of each leaf, with values drawn from
bounded pools of tricky inputs.  Every command must end in exit 0 or 2
(3 only under --strict), and no exception but SystemExit may escape
``dispatch``.  A command with exactly one option outside the domain its
type declares, and every other option inside its own, must exit 2 with
that option named in the last line of stderr.

The sizes that set the work (q, --qmax, k, --log2m, --trials) come from
small pools, and so does every value that the slow caps admit, so each
command runs in milliseconds; the caps themselves are timed elsewhere.
"""

import argparse
import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from condbound.cli import build_parser, dispatch

# spellings that int(), Fraction() or the dyadic parser read in
# surprising ways, or not at all
_TRICKY = ["-1", "0", "+4", "1_0", "٨", "007", "1e400", "1/0", "nan", "2^-1",
           ""]
_RATIONAL = ["1e-400", "abc", "0.5", "1/3", *_TRICKY]
# (usual values, edge values) of each option by its dest: the edges are
# the tricky spellings and each cap + 1 (and - 1 where that is cheap)
_POOLS = {
    "q": (["2", "3", "4", "5", "8"], ["1", "2049", *_TRICKY]),
    "qmax": (["8", "16", "256"], ["3", "4", "5", "2049", *_TRICKY]),
    "qmin": (["3", "4", "8"], ["2", "9", *_TRICKY]),
    "step": (["1", "2"], _TRICKY),
    "k": (["16", "32", "64"], ["1", "2", "1023", "1024", "1025", *_TRICKY]),
    "log2m": (["1", "4", "10"], ["1023", "1024", "1025", *_TRICKY]),
    "balls": (["1", "2", "3", "7", "100"],
              [str(1 << 1024), str((1 << 1024) + 1), str((1 << 24) + 1),
               *_TRICKY]),
    "order": (["1", "2"], ["9", "2049", *_TRICKY]),
    "w": (["1", "2", "3", "4"], ["16", "17", "٣", *_TRICKY]),
    "output_bits": (["1", "2", "3"], ["16", "17", *_TRICKY]),
    "trials": (["1", "3", "17"],
               [str((1 << 22) + 1), str((1 << 30) + 1), *_TRICKY]),
    "master_seed": (["0", "7"], [str((1 << 128) - 1), str(1 << 128),
                                 *_TRICKY]),
    "orders": (["1", "1,2", "2"], ["2049", "1,,2", ",", *_TRICKY]),
    "thresholds": (["1", "2", "3/2^1", "1/2"],
                   ["1,,2", "1/2^1025", *_RATIONAL]),
    "theta": (["1/2", "1/4", "3/4"], ["1", *_RATIONAL]),
    "loss": (["0", "1", "2", "3/2"], _RATIONAL),
    "log2eps": (["64", "128", "64,128"],
                ["1", "2", "1,,2", "1.0000000000000000000001", *_RATIONAL]),
    "threads": (["1", "2"], ["٢", *_TRICKY]),
}
_POOLS["bins"] = _POOLS["balls"]
# simulate's q is no cap: a polynomial of degree 2048 at w = 16 is slow
_POOLS["simulate q"] = (["1", "2", "3", "4", "5"], ["8", *_TRICKY])
# left out, these default to a long run (10000 trials, a window to 1024)
_ALWAYS_GIVEN = {"trials", "qmax"}


def _leaves(parser, words=()):
    """(words, parser) for every leaf command under ``parser``."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(words), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, (*words, name))


def _option_values(words, action, cache_pool):
    """The argv words of one action, or None (left out) two times in three
    where the parser does not require the option."""
    option = action.option_strings[-1]
    if isinstance(action, argparse._HelpAction):
        return st.sampled_from([None] * 15 + [[option]])
    if action.nargs == 0:                # --strict
        return st.sampled_from([None, [option]])
    if action.choices is not None:
        usual = edge = list(action.choices)
    elif action.dest == "cache_dir":
        usual, edge = cache_pool
    else:
        usual, edge = _POOLS.get(f"{words[0]} {action.dest}",
                                 _POOLS[action.dest])
    # three usual values to one edge value
    value = st.one_of(*[st.sampled_from(usual)] * 3, st.sampled_from(edge))
    words_of = value.map(lambda v: [option + "=" + v])
    if action.required or action.dest in _ALWAYS_GIVEN:
        return words_of
    return st.one_of(st.none(), st.none(), words_of)


@st.composite
def _argv(draw, cache_pool):
    words, parser = draw(st.sampled_from(list(_leaves(build_parser()))))
    argv = list(words)
    for action in parser._actions:
        got = draw(_option_values(words, action, cache_pool))
        if got is not None:
            argv += got
    return argv


def test_parser_driven_fuzz_exits_0_or_2():
    with tempfile.TemporaryDirectory() as tmp:
        existing_file = Path(tmp) / "file"
        existing_file.write_text("")
        cache_pool = ([str(Path(tmp) / "cache")], [str(existing_file), ""])

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(_argv(cache_pool))
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = dispatch(argv)
                except SystemExit as exc:       # argparse: usage or --help
                    code = exc.code
            allowed = {0, 2, 3} if "--strict" in argv else {0, 2}
            assert code in allowed, (argv, code)

        run()


_INT_BAD = ["", "x", "1.5", "1e3", "1/2"]
_RATIONAL_BAD = ["", "x", "1/0", "1.2.3", "1e1025"]
# (values inside, values outside) the domain of each option's type, by its
# dest or by "leaf dest"; an option with no value inside is left out
# unless it is the one drawn outside
_DOMAINS = {
    "q": (["4", "8"], ["5", "3", "2", "0", "-4", "2050", *_INT_BAD]),
    "moment q": (["2", "3", "4"], ["0", "-1", *_INT_BAD]),
    "simulate q": (["2", "3"], _INT_BAD),
    "order": (["1", "2"], ["0", "2049", *_INT_BAD]),
    "log2m": (["4", "10"], ["-1", "1025", *_INT_BAD]),
    "theta": (["1/2", "0.25"], ["0", "1", "2.6", "-1/2", *_RATIONAL_BAD]),
    "table qmax": (["0", "5"], ["-1", "2049", *_INT_BAD]),
    "asymptotics qmax": (["8", "16"], ["2", "2049", *_INT_BAD]),
    "qmax": (["16", "2048"], ["3", "-4", "2049", *_INT_BAD]),
    "qmin": (["3", "8"], ["2", "-5", *_INT_BAD]),
    "step": (["1", "2"], ["0", "-1", *_INT_BAD]),
    "k": (["16", "64"], ["0", "-1", "1025", *_INT_BAD]),
    "loss": (["0", "3/2", "2.6"], ["-1", "-1/2", *_RATIONAL_BAD]),
    "log2eps": (["64", "1/2"], ["0", "-3", *_RATIONAL_BAD]),
    "sweep log2eps": (["64", "64,128"],
                      ["1", "1/2", "64,1", ",", "64,,128", *_RATIONAL_BAD]),
    "moment balls": (["4", "7"], ["0", "-3", str((1 << 1024) + 1),
                                  *_INT_BAD]),
    "balls": (["1", "8"], ["0", "-1", *_INT_BAD]),
    "bins": ([], ["0", "-2", *_INT_BAD]),
    "threads": (["1", "2"], ["0", "-3", *_INT_BAD]),
    "orders": (["1", "1,2", ""], ["1,x", ",", "1,,2", "x"]),
    "thresholds": (["1", "3/2^1"], ["1/3", "1,,2", "abc", "1/2^1025"]),
    "format": (["json", "csv"], ["xml", ""]),
    "what": (["stirling", "bell"], ["x"]),
    "mode": (["mc"], ["x"]),
    "w": (["3"], _INT_BAD),
    "output_bits": (["1", "3"], _INT_BAD),
    "trials": (["3"], _INT_BAD),
    "master_seed": (["0", "7"], _INT_BAD),
}
_DOMAINS["moment bins"] = _DOMAINS["moment balls"]


@st.composite
def _argv_one_option_outside(draw, cache_pool):
    """(argv, the option drawn outside its domain)."""
    words, parser = draw(st.sampled_from(list(_leaves(build_parser()))))
    actions = [a for a in parser._actions if a.option_strings
               and not isinstance(a, argparse._HelpAction)]
    bad = draw(st.sampled_from([a for a in actions if a.nargs != 0]))
    args = []
    for action in actions:
        option = action.option_strings[-1]
        if action.nargs == 0:            # --strict
            args += draw(st.sampled_from([[], [option]]))
            continue
        inside, outside = (cache_pool if action.dest == "cache_dir" else
                           _DOMAINS.get(f"{words[-1]} {action.dest}",
                                        _DOMAINS[action.dest]))
        if action is bad:
            args.append(f"{option}={draw(st.sampled_from(outside))}")
        elif inside and (action.required or draw(st.booleans())):
            args.append(f"{option}={draw(st.sampled_from(inside))}")
    return [*words, *draw(st.permutations(args))], bad.option_strings[-1]


# messages that named a library parameter, not the option typed; moment's
# --q is its default --order, which the 2048 row cap bounds
_NAMED_BY_THE_LIBRARY = [
    (["lemma2", "--q=5", "--log2m=10"], "--q"),
    (["pz", "--q=0", "--log2m=10", "--theta=1/2"], "--q"),
    (["pz", "--q=4", "--log2m=10", "--theta=2.6"], "--theta"),
    (["moment", "--balls=4", "--bins=0", "--q=2"], "--bins"),
    (["moment", "--balls=4", "--bins=4", "--q=2049"], "--q"),
    (["table", "--qmax=-1"], "--qmax"),
]


def test_single_option_outside_its_domain_is_named():
    with tempfile.TemporaryDirectory() as tmp:
        cache_pool = ([str(Path(tmp) / "cache")], [""])

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(_argv_one_option_outside(cache_pool))
        def run(drawn):
            argv, option = drawn
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = dispatch(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code == 2, argv
            last = err.getvalue().splitlines()[-1]
            # --q is named, not --qmax
            assert re.search(re.escape(option) + r"(?![\w-])", last), \
                (argv, last)

        for drawn in _NAMED_BY_THE_LIBRARY:
            run = example(drawn)(run)
        run()
