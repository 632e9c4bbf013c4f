"""Conversational negation: logical negation composed with worldly context.

The callers look the word up, negate it (`logical_negation`) and fetch its
worldly context; `conversational_negate` composes the two, then rescales
so the largest eigenvalue is exactly 1.  The basis flag decides which
operand supplies the spectral structure, the second argument of each
`COMPOSITIONS` function: 'w' the negated word, 'c' the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .composition import COMPOSITIONS, CompositionKind
from .entailment import MEASURES
from .errors import WeightOutOfRangeError, ZeroMatrixError
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


def conversational_negate(negated: Dmat, context: Dmat, cfg: NegationConfig) -> Dmat:
    """Compose a logical negation with its worldly context under `cfg`, then rescale.

    Raises DimensionMismatchError for operands of different dims, and
    ZeroMatrixError when the composition annihilates everything (an
    orthogonal context); a silent all-zero rating never escapes.
    """
    fn = COMPOSITIONS[cfg.composition]
    raw = fn(context, negated) if cfg.basis is Basis.W else fn(negated, context)
    if raw.is_zero():
        raise ZeroMatrixError(f"composition annihilated the negation in row {','.join(cfg.label())}")
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
