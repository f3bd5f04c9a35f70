"""Classification toolkit for the eigenvector-free matrices of SL3(F7).

The group SL3(F7) has 5_630_688 elements; exactly 1_778_112 of them have
no eigenvector over F7, and they split into 18 equally sized conjugacy
classes named by characteristic-polynomial labels [i,j].  This package
computes the catalog exactly (labels, orders 19/57, centralizers, Sylow-19
structure, the parabolic maximal subgroup) and decides simultaneous
conjugacy for commuting tuples, with every count reproduced by exhaustive
scans over the group's det-1 elements in matrix-code order.
"""

from .classify import (
    ClassLabel,
    KNOWN_REPRESENTATIVES,
    class_label,
    eigenfree_labels,
    inverse_label,
    order_of_label,
    power_class_map,
    psl_label,
    representative,
    scale_label,
)
from .field import (
    CubicPoly,
    ExtScalar,
    cubic_roots_ext,
    ext_mul,
    ext_order,
    fp_inv,
)
from .matrix3 import (
    CODE_SPACE,
    GROUP_ORDER,
    IDENTITY,
    Mat3,
    char_poly,
    decode,
    det,
    encode,
    format_matrix,
    has_fp_eigenvalue,
    mat,
    mat_inv,
    mat_mul,
    mat_order,
    mat_pow,
    parse_matrix,
    trace,
)
from .scan import (
    CentralizerReport,
    ScanSummary,
    census,
    centralizer,
    class_size,
    count_sl3,
    normalizer_of_cyclic,
    orbit_oracle,
    order_absence_check,
    power_table,
    sylow19_count,
)
from .simconj import (
    AllEigen,
    CommutingTuple,
    SimConjVerdict,
    analyze_tuple,
    decide_simconj,
    eighteen_commuting_reps,
    find_conjugator,
)
from .subgroups import (
    ReductionTrace,
    X,
    Y,
    Z,
    generator_closure,
    in_parabolic,
    parabolic_size,
    reduce_to_generator,
)

__version__ = "0.1.0"
