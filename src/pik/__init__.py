"""Exact toolkit for the partial inner automorphism group of a free group.

Group arithmetic in the semidirect normal form, word and conjugacy decision
procedures, the graded Lie algebra with its presentation certificates, and
bounded-degree verification of the embedding into the IA filtration's
Johnson Lie algebra.
"""

from .words import FreeWord, cyclic_reduce, free_conjugate, invert, multiply, parse_x_word
from .endos import EndoF, apply, check_mccool_relations, chi, compose, y_gen
from .magnus import gamma_degree, ia_degree, johnson_image, magnus_expand
from .igroup import IElem, abelianize, gen_elem, iinv, imul, to_endo, word_problem
from .conj import ConjResult, SearchBudget, conjugacy
from .lie import LieElem, bracket, lyndon_basis, witt
from .decomp import (
    RelatorSet,
    build_relators,
    gr_rank_table,
    verify_lie_certificates,
    verify_psi_automorphism,
    verify_theorem_th1,
)
from .ajohnson import inner_degree_check, l1_rank

__version__ = "0.1.0"

__all__ = [
    "FreeWord",
    "EndoF",
    "IElem",
    "ConjResult",
    "SearchBudget",
    "LieElem",
    "RelatorSet",
    "abelianize",
    "apply",
    "bracket",
    "build_relators",
    "check_mccool_relations",
    "chi",
    "compose",
    "conjugacy",
    "cyclic_reduce",
    "free_conjugate",
    "gamma_degree",
    "gen_elem",
    "gr_rank_table",
    "ia_degree",
    "iinv",
    "imul",
    "inner_degree_check",
    "invert",
    "johnson_image",
    "l1_rank",
    "lyndon_basis",
    "magnus_expand",
    "multiply",
    "parse_x_word",
    "to_endo",
    "verify_lie_certificates",
    "verify_psi_automorphism",
    "verify_theorem_th1",
    "witt",
    "word_problem",
    "y_gen",
]
