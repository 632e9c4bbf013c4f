"""The public surface: tolerances are module constants, not per-call options."""

import dataclasses
import inspect
import types

import numpy as np

import convneg

TOLERANCE_PARAMETERS = {"rank_tol", "group_tol", "psd_tol"}
REMOVED_NAMES = {
    "save_entailment_graph",
    "load_entailment_graph",
    "export_lexicon_text",
    "hierarchy_context_provider",
    "graph_context_provider",
    "compose",
    "BasisSlot",
}


def public_callables():
    """Every exported function and class method, plus the public ones of each exported module."""
    found = {}

    def add(qualname, obj):
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not (attr.startswith("_") and attr != "__init__"):
                    found[f"{qualname}.{attr}"] = member
        elif inspect.isfunction(obj):
            found[qualname] = obj

    for name in convneg.__all__:
        obj = getattr(convneg, name)
        if isinstance(obj, types.ModuleType):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and getattr(member, "__module__", None) == obj.__name__:
                    add(f"{obj.__name__}.{attr}", member)
        else:
            add(name, obj)
    return found


def test_no_tolerance_parameters():
    surface = public_callables()
    for expected in ("k_hyp", "convneg.entailment.k_e_from_spectra", "SpectralDecomposition.rank", "Dmat.is_zero"):
        assert expected in surface
    offenders = {
        name: sorted(TOLERANCE_PARAMETERS & set(inspect.signature(fn).parameters))
        for name, fn in surface.items()
    }
    assert {name: params for name, params in offenders.items() if params} == {}


def test_is_zero_takes_no_tolerance():
    assert list(inspect.signature(convneg.Dmat.is_zero).parameters) == ["self"]


def test_oracle_takes_no_options():
    # its tolerance and step count are the module constants ORACLE_TOL and ORACLE_STEPS
    assert list(inspect.signature(convneg.k_hyp_oracle).parameters) == ["A", "B"]


def test_dmat_keeps_only_its_matrix_and_spectrum():
    # a measure keeps its own caches; nothing else is set on a Dmat, even after it is scored
    fields = ["matrix", "eigenvalues", "_spectral"]
    assert [f.name for f in dataclasses.fields(convneg.Dmat)] == fields
    assert list(inspect.signature(convneg.Dmat).parameters) == ["matrix", "spectrum"]
    mixed, pure = convneg.Dmat(np.diag([1.0, 0.5, 0.0])), convneg.Dmat(np.diag([0.0, 1.0, 0.0]))
    for fn in (convneg.k_e, convneg.k_ba, convneg.k_hyp):
        fn(mixed, [pure])
        fn([pure], mixed)
    assert [sorted(vars(m)) for m in (mixed, pure)] == [sorted(fields)] * 2


def test_removed_names_are_not_exported():
    assert not REMOVED_NAMES & set(convneg.__all__)
    for name in REMOVED_NAMES:
        assert not any(hasattr(getattr(convneg, m), name) for m in ("composition", "context", "lexicon", "pipeline"))


def test_single_caller_parameters_are_gone():
    # conversational_negate composes what its callers looked up, negated and fetched;
    # run_grid's caller writes the CSV, and verify runs at DEFAULT_DIMS
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(convneg.conversational_negate) == ["negated", "context", "cfg"]
    assert "out" not in params(convneg.run_grid)
    assert params(convneg.spectral_decompose) == ["M"]
    assert "dims" not in params(convneg.verify_theorems)
