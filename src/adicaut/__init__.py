"""Transducers realizing affine maps u -> v + M*u on base-n digit words, and
exact computation in the tree-automorphism groups they generate."""

from .linalg import (
    all_letters,
    block_diag,
    coprime_to,
    det,
    identity,
    inverse_unimodular,
    is_unimodular,
    mat_mul,
    mat_vec,
    matrix,
    mod_div,
    offset_box,
    row_sum_norm,
    vec_add,
    vector,
)
from .nadic import (
    AffineMap,
    DigitWord,
    affine_apply_digitwise,
    affine_apply_prefix,
    compose,
    decode,
    encode,
)
from .automaton import (
    AlphabetCapError,
    Automaton,
    BuildError,
    DEFAULT_ALPHABET_CAP,
    FormatError,
    WellDefinednessReport,
    build_union,
    dedup,
    from_json,
    read_matrices,
    state_count_bound,
    to_json,
    well_definedness_check,
)
from .treeaction import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    GroupWord,
    WordError,
    conjugacy_search_bounded,
    decide_identity,
    parse_word,
    reduced_words,
    translation_word,
)
from .constructions import (
    Presentation,
    RelatorCheckReport,
    block_extend,
    presentation_for,
    relator_check,
    sanov_pair,
    verify_relation,
    word_matrix,
)

__version__ = "0.1.0"
