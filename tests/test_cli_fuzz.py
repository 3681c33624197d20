"""Fuzz the command line from the parser's own tree: every leaf of
``build_parser()`` and every action of each leaf, with values drawn from
bounded pools of tricky inputs.  Every command must end in exit 0 or 2
(3 only under --strict), and no exception but SystemExit may escape
``dispatch``.

The sizes that set the work (q, --qmax, k, --log2m, --trials) come from
small pools, and so does every value that the slow caps admit, so each
command runs in milliseconds; the caps themselves are timed elsewhere.
"""

import argparse
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
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
        # an empty --cache-dir is the working directory, so it is left out
        cache_pool = ([str(Path(tmp) / "cache")], [str(existing_file)])

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
