"""The README's library example runs and prints what its comments say."""

import math
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block():
    namespace = {}
    exec(_library_block(), namespace)
    commented = {}
    for line in _library_block().splitlines():
        code, _, comment = line.partition("#")
        if comment:
            commented[code.strip()] = comment.strip()
    assert commented["raw_moment(inst, 3).value"] == "Fraction(29, 8)"
    assert eval("raw_moment(inst, 3).value", namespace) == Fraction(29, 8)
    assert commented["cert.probability"].startswith("Fraction(17, 128)")
    assert eval("cert.probability", namespace) == Fraction(17, 128)
    assert commented["cert.threshold_power"].startswith("Fraction(1, 4)")
    assert eval("cert.threshold_power", namespace) == Fraction(1, 4)
    assert commented["verdict.reduction.epsilon_star"].endswith("~2^-43.54")
    eps = eval("verdict.reduction.epsilon_star", namespace)
    log2_eps = math.log2(eps.numerator) - math.log2(eps.denominator)
    assert -43.55 < log2_eps < -43.54
    assert commented["report.moments[0].mean"].startswith("1.0,")
    assert eval("report.moments[0].mean", namespace) == 1.0
