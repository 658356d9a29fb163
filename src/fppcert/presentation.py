"""Free-group words and finite presentations.

Words are stored freely reduced and run-length encoded as
(generator index, exponent) pairs.  All values here are immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import ParseError

Letter = Tuple[int, int]


def _merge_runs(pairs: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: List[Letter] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            s = out[-1][1] + exp
            out.pop()
            if s:
                out.append((gen, s))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in a free group.

    ``letters`` holds (generator, exponent) runs with nonzero exponents and
    distinct adjacent generators.  Build via :meth:`of` to enforce reduction.
    """

    letters: Tuple[Letter, ...] = ()

    @staticmethod
    def of(pairs: Iterable[Letter]) -> "Word":
        return Word(_merge_runs(pairs))

    def __pow__(self, n: int) -> "Word":
        """The n-th power in one pass: a single run scales its exponent."""
        if n == 0:
            return Word()
        if len(self.letters) == 1:
            gen, exp = self.letters[0]
            return Word(((gen, exp * n),))
        base = self if n > 0 else self.inverse()
        return Word.of(base.letters * abs(n))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        """Largest generator index appearing, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def root(self) -> Tuple[Tuple[Letter, ...], int]:
        """The runs of the shortest u with w = u^k on w's runs, and k.

        u is x^(+-1) for a single run x^e, with k = |e|; else the shortest
        prefix of the runs that repeats to all of them; else w itself, with
        k = 1, as for (x y x)^2 = x y x^2 y x and for the empty word.
        """
        runs, m = self.letters, len(self.letters)
        if m == 1:
            gen, exp = runs[0]
            return ((gen, 1 if exp > 0 else -1),), abs(exp)
        d = next((d for d in range(1, m) if m % d == 0 and runs[:d] * (m // d) == runs), m)
        return (runs[:d], m // d) if m else (runs, 1)


# a generator name, as the parser reads it and the formatter writes it
_NAME = r"[A-Za-z][A-Za-z0-9_]*"


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus freely reduced relators."""

    generator_names: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        if not self.generator_names:
            raise ValueError("a presentation needs at least one generator")
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ValueError("generator names must be pairwise distinct")
        for name in self.generator_names:
            if not re.fullmatch(_NAME, name):
                raise ValueError(f"generator name {name!r} does not match {_NAME}")
        g = len(self.generator_names)
        for w in self.relators:
            if w.letters != _merge_runs(w.letters):
                raise ValueError("relator is not a freely reduced word")
            if not all(0 <= gen < g for gen, _ in w.letters):
                raise ValueError("relator references an undeclared generator")

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @property
    def num_relators(self) -> int:
        return len(self.relators)


# The default cap on the cosets one enumeration defines, and on the runs that
# powers of several runs may write out, summed over the whole presentation: a
# relator longer than the cap is refused at enumeration anyway.
MAX_COSETS = MAX_POWER_RUNS = 1_000_000

# whitespace or a comment to the end of its line, a token, or any other character
_TOKEN_RE = re.compile(r"(?P<skip>\s+|#[^\n]*)"
                       rf"|(?P<token>{_NAME}|-?[0-9]+|[<>|,*^()])|.")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup is None:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup == "token":
            tokens.append((m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text_len = len(text)
        self.power_runs = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", self.text_len)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, symbol: str):
        tok, at = self.next()
        if tok != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok!r}", at)

    def parse(self) -> Presentation:
        self.expect("<")
        names = self._list(self._name)
        if len(set(names)) != len(names):
            raise ParseError("duplicate generator name")
        index = {name: i for i, name in enumerate(names)}
        self.expect("|")
        relators = [] if self.peek() == ">" else self._list(lambda: self._relator(index))
        self.expect(">")
        if self.pos < len(self.tokens):
            tok, at = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok!r}", at)
        return Presentation(tuple(names), tuple(relators))

    def _list(self, item) -> list:
        """item (',' item)*"""
        items = [item()]
        while self.peek() == ",":
            self.next()
            items.append(item())
        return items

    def _name(self) -> str:
        tok, at = self.next()
        if not tok[0].isalpha():  # a token is a name exactly when it starts with a letter
            raise ParseError(f"expected generator name, found {tok!r}", at)
        return tok

    def _relator(self, index) -> Word:
        at = self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.text_len
        w = self._word(index)
        if w.is_identity():
            raise ParseError("relator reduces to the empty word", at)
        return w

    def _word(self, index) -> Word:
        """word := factor ('*' factor)*, factor := (name | '(' word ')') ['^' int].

        Each open parenthesis keeps the runs of its word so far on a stack,
        so nesting depth costs no recursion; each word's runs are reduced
        once, when it closes.
        """
        stack: List[List[Letter]] = [[]]
        while True:
            tok, at = self.next()
            while tok == "(":
                stack.append([])
                tok, at = self.next()
            if tok not in index:
                raise ParseError(f"unknown generator {tok!r}", at)
            base = Word.of([(index[tok], 1)])
            while True:
                stack[-1].extend(self._power(base).letters)
                if self.peek() == "*":
                    self.next()
                    break
                if len(stack) == 1:
                    return Word.of(stack.pop())
                self.expect(")")
                base = Word.of(stack.pop())

    def _power(self, base: Word) -> Word:
        if self.peek() != "^":
            return base
        self.next()
        etok, eat = self.next()
        try:
            exp = int(etok)
        except ValueError:
            raise ParseError(f"expected integer exponent, found {etok!r}", eat)
        if exp == 0:
            raise ParseError("exponent must be nonzero", eat)
        if len(base.letters) > 1:
            # a power of several runs is written out run by run
            self.power_runs += len(base.letters) * abs(exp)
            if self.power_runs > MAX_POWER_RUNS:
                raise ParseError(f"exponent {etok} is too large for a word of "
                                 f"{len(base.letters)} runs", eat)
        return base ** exp


def parse_presentation(text: str) -> Presentation:
    """Parse ``< gens | relators >`` text; relators come out freely reduced."""
    return _Parser(text).parse()


def format_word(w: Word, names: Sequence[str]) -> str:
    if w.is_identity():
        raise ValueError("cannot format the empty word")
    runs = []
    for gen, exp in w.letters:
        runs.append(names[gen] if exp == 1 else f"{names[gen]}^{exp}")
    return "*".join(runs)


def format_presentation(P: Presentation) -> str:
    gens = ", ".join(P.generator_names)
    rels = ", ".join(format_word(w, P.generator_names) for w in P.relators)
    return f"< {gens} | {rels} >"


def exponent_matrix(P: Presentation) -> List[List[int]]:
    """The r x g matrix of total exponent sums of each generator per relator."""
    g = P.num_generators
    rows = []
    for w in P.relators:
        row = [0] * g
        for gen, exp in w.letters:
            row[gen] += exp
        rows.append(row)
    return rows


def euler_characteristic(P: Presentation) -> int:
    """Euler characteristic of the presentation complex: 1 - g + r."""
    return 1 - P.num_generators + P.num_relators
