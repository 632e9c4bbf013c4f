"""Conversational negation: logical negation composed with worldly context.

Three steps: negate the word's matrix, fetch its worldly context, compose
the two, then rescale so the largest eigenvalue is exactly 1.  The basis
flag decides which operand supplies the spectral structure, the second
argument of each `COMPOSITIONS` function: 'w' the negated word, 'c' the
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .composition import COMPOSITIONS, CompositionKind
from .entailment import MEASURES
from .errors import WeightOutOfRangeError, ZeroMatrixError
from .lexicon import lookup_word
from .negation import neg_inv, neg_sub
from .spectral import Dmat, rescale_max_eig


class NegationKind(str, Enum):
    SUB = "sub"
    INV = "inv"


class Basis(str, Enum):
    W = "w"
    C = "c"


@dataclass(frozen=True)
class NegationConfig:
    """One combination of logical negation, composition, and basis choice."""

    negation: NegationKind
    composition: CompositionKind
    basis: Basis = Basis.W
    support_weight: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "negation", NegationKind(self.negation))
        object.__setattr__(self, "composition", CompositionKind(self.composition))
        object.__setattr__(self, "basis", Basis(self.basis))
        if not 0.0 <= self.support_weight <= 1.0:
            raise WeightOutOfRangeError(f"support_weight {self.support_weight} not in [0, 1]")

    def label(self) -> tuple[str, str, str]:
        basis = "-" if self.composition in (CompositionKind.MULT, CompositionKind.DIAG) else self.basis.value
        return (self.negation.value, self.composition.value, basis)


def logical_negation(X: Dmat, cfg: NegationConfig) -> Dmat:
    if cfg.negation is NegationKind.SUB:
        return neg_sub(X)
    return neg_inv(X, cfg.support_weight)


def conversational_negate(
    word: str,
    cfg: NegationConfig,
    lexicon,
    context_provider: Callable[[str], Dmat],
    negation_provider: Callable[[str], Dmat] | None = None,
) -> Dmat:
    """Negate, contextualize, compose, rescale.

    `negation_provider(word)`, when given, supplies the word's logical
    negation under `cfg` (so callers can share one across configs);
    otherwise it is computed from the lexicon.  Raises UnknownWordError /
    IsolatedWordError from the lexicon or providers, and ZeroMatrixError
    when the composition annihilates everything (an orthogonal context); a
    silent all-zero rating never escapes.
    """
    if negation_provider is None:
        negated = logical_negation(lookup_word(lexicon, word), cfg)
    else:
        negated = negation_provider(word)
    context = context_provider(word)
    fn = COMPOSITIONS[cfg.composition]
    raw = fn(context, negated) if cfg.basis is Basis.W else fn(negated, context)
    if raw.is_zero():
        raise ZeroMatrixError(f"composition annihilated the meaning of not-{word!r}")
    return rescale_max_eig(raw)


def plausibility(negated: Dmat | Sequence[Dmat], alternative: Dmat | Sequence[Dmat], measure: str, direction: int = 1):
    """Score an alternative against a conversational-negation output.

    Direction 1 runs the asymmetric measures from the negation output to the
    alternative; direction 2 runs them the other way.  k_BA and trace are
    direction-insensitive by convention here (k_BA flips sign structure
    rather than direction, trace is symmetric).  A sequence of alternatives
    is scored at once against one output, or two sequences of equal length
    pair by pair, into an array in sequence order (see `entailment`); two
    matrices give a float.
    """
    try:
        fn = MEASURES[measure]
    except KeyError:
        raise ValueError(f"measure must be one of {sorted(MEASURES)}") from None
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    if measure in ("k_BA", "trace") or direction == 1:
        return fn(negated, alternative)
    return fn(alternative, negated)
