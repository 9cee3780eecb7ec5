"""Word problems and coarse geometry for finitely presented groups."""

__version__ = "0.1.0"

from .words import (
    EMPTY,
    ParseError,
    Presentation,
    SymmetrizedRelatorSet,
    Word,
    conjugacy_rep,
    cyclic_reduce,
    format_presentation,
    format_word,
    free_reduce,
    invert,
    multiply,
    parse_presentation,
    parse_word,
    shortlex_key,
    standard_presentation,
    symmetrize,
)
from .dehn import (
    DehnStep,
    DehnVerdict,
    ReductionTrace,
    dehn_reduce,
    find_majority_subword,
    verify_dehn_presentation,
    zz_normal_form,
)
from .oracle import (
    Tristate,
    UndecidedError,
    canonical_form,
    generate_null_homotopic,
    words_equal,
)
from .cayley import (
    CayleyBall,
    ElementIndex,
    GeodesicPath,
    all_geodesics,
    build_ball,
)
from .thinness import ThinnessReport, ThinnessWitness, delta_estimate, triangle_thinness
from .isoperimetry import (
    ORACLE_CAPS,
    AreaCaps,
    AreaResult,
    DehnTable,
    GrowthClass,
    area,
    dehn_function,
    fit_growth,
)
from .qi import QIReport, compare_metrics
from .hplane import (
    THINNESS_BOUND,
    HPoint,
    HTriangleReport,
    euclid_fat_witness,
    h_dist,
    h_geodesic_point,
    h_triangle_thinness,
    verify_thinness_bound,
)
from .bench import BenchRow, WordSource, run_bench
