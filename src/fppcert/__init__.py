"""Fixed point property certificates for finite presentation complexes.

Verifies from first principles that a finite presentation defines an
efficient presentation of a Bing group, and hence that its presentation
complex has the fixed point property, emitting auditable certificates.
"""

from .certify import (
    Certificate,
    CertifyOptions,
    Pipeline,
    WedgeReport,
    bing_check,
    efficiency_check,
    fpp_certificate,
    merge_invariant_factors,
    render_report,
    wedge_analysis,
)
from .coset import GroupTable, todd_coxeter
from .endos import (
    dedup_modulo_inner,
    enumerate_endomorphisms,
    induced_h2_set,
)
from .errors import (
    CompositionNotZero,
    ConsistencyError,
    CosetLimitExceeded,
    FppError,
    InfiniteGroup,
    NoSolution,
    OrderTooLarge,
    ParseError,
    RelatorTooLong,
)
from .presentation import (
    Presentation,
    Word,
    euler_characteristic,
    exponent_matrix,
    format_presentation,
    parse_presentation,
)
from .resolution import (
    FreeResolution3,
    build_resolution,
    h2_of_group,
    h2_via_bar_complex,
)
from .zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    SmithDecomposition,
    homology_from_sparse,
    smith_normal_form,
)

__version__ = "0.1.0"
