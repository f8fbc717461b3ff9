"""Exact-repair determinant codes for (n, k=d, d) distributed storage.

The package provides the non-secure code (encode, recover, exact repair),
Type-I and Type-II secure message layouts, an exact rank-based leakage
auditor, closed-form trade-off analytics, and a shard-file CLI.

Indexing convention, stated once: node ids, matrix row labels and subset
elements are 1-based, matching the usual algebraic notation; every numpy
index is 0-based, and conversions are always an explicit ``- 1``.
"""

from .gf import Field, is_prime, smallest_prime_gt
from .gfmatrix import (
    GFMatrix,
    InconsistentSystemError,
    SingularMatrixError,
)
from .subsets import LexIndexer, Subset, binom, ind
from .code import (
    CellKind,
    NodeShare,
    RepairPacket,
    SystemParams,
    build_message_matrix,
    cell_kind,
    encode,
    info_symbols,
    multi_repair_rank,
    parity_holds,
    recover_message,
    repair_encoder,
    repair_node,
    repair_packet,
    system,
    vandermonde_encoder,
)
from .secure import (
    KeyStream,
    MessageLayout,
    Role,
    Scheme,
    SecureParams,
    assemble,
    build_layout,
    extract_keys,
    extract_secrets,
    key_count,
    sample_keys,
    secret_capacity,
)
from .leakage import (
    LinearObservation,
    decode_keys_type_i,
    decode_keys_type_ii,
    keys_recoverable,
    mutual_information,
    observation_entropy,
    observe_node_contents,
    observe_repair_traffic,
    xi_block_triangularize,
    xi_top_fullrank,
)
from .tradeoff import (
    TradeoffPoint,
    cutset_bound,
    external_bound_check,
    pareto_count,
    pareto_points_bruteforce,
    point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
