"""sliarith: a custom-precision simulator for symmetric level-index
arithmetic, with parametric minifloat baselines and seeded error
experiments."""

from .arith import absolute, add, compare, div, mul, neg, sub
from .core import BitWord, SliFormat, SliNumber, decode, encode, pack, unpack
from .experiments import cli
from .minifloat import FloatFormat, fl, fl_op

__version__ = "0.1.0"

__all__ = [
    "BitWord",
    "FloatFormat",
    "SliFormat",
    "SliNumber",
    "absolute",
    "add",
    "cli",
    "compare",
    "decode",
    "div",
    "encode",
    "fl",
    "fl_op",
    "mul",
    "neg",
    "pack",
    "sub",
    "unpack",
]
