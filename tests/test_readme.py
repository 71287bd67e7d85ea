"""README's two Python examples, run as written: each value a comment
states is the value its line gives."""

import re
from pathlib import Path

import pytest

from sliarith import FloatFormat

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)

# (block, the line's code, an expression of the names the block binds
# whose str() is the comment's value, that value).
CLAIMS = [
    (0, "x.level, x.index_k", "(x.level, x.index_k)", "(2, 554)"),
    (0, "str(pack(x))", "repr(str(pack(x)))", "'0101001000101010'"),
    (0, "decode(mul(x, x))", "decode(mul(x, x))", "9.87080793763951"),
    (0, "decode(add(x, x))", "decode(add(x, x))", "6.283548393727487"),
    (1, "x = lanes.encode(", "'keys ' + str(x)", "keys [13545 20865 28530]"),
    (1, "lanes.decode(y, fmt)", "lanes.decode(y, fmt).tolist()",
     "[0.7500633148236965, 11.99764930211621, 984607197605.7045]"),
]


def _run(block: str) -> dict:
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    return names


def test_there_are_two_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block, code, expression, value", CLAIMS,
                         ids=[code for _, code, _, _ in CLAIMS])
def test_comment_states_what_the_line_gives(block, code, expression, value):
    (line,) = [line for line in BLOCKS[block].splitlines() if line.startswith(code)]
    assert line.split("# ", 1)[1].startswith(value)
    assert str(eval(expression, _run(BLOCKS[block]))) == value


def test_binary16_gives_the_stated_lanes():
    sli = "fmt = SliFormat(2, 12)"
    b16 = 'fmt = FloatFormat.from_name("binary16")'
    assert f"With `{b16}` the same lines give\n`[0.75, 12.0, inf]`." in README
    assert BLOCKS[1].count(sli) == 1
    names = _run(BLOCKS[1].replace(sli, f"from sliarith import FloatFormat\n{b16}"))
    assert names["fmt"] == FloatFormat(11, 15)
    assert str(eval("lanes.decode(y, fmt).tolist()", names)) == "[0.75, 12.0, inf]"
