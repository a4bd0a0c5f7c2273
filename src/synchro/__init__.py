"""Synchronizing finite automata toolkit."""

from synchro.core import (
    AutomatonError,
    CapExceeded,
    Dfa,
    DomainError,
    InputError,
    NotSynchronizing,
    PreconditionError,
    StateSet,
    apply_word,
    dfa_from_json,
    dfa_to_json,
    image,
    load_dfa,
    save_dfa,
)

__all__ = [
    "AutomatonError",
    "CapExceeded",
    "Dfa",
    "DomainError",
    "InputError",
    "NotSynchronizing",
    "PreconditionError",
    "StateSet",
    "apply_word",
    "dfa_from_json",
    "dfa_to_json",
    "image",
    "load_dfa",
    "save_dfa",
]
