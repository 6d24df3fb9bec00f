"""zfforge: exact zero-forcing solvers, integer spectra, and cospectral constructions."""

from .graphs import (Graph, ORDER_CAP, bits, build_named, cartesian, complement,
                     complete, complete_bipartite, components, cycle,
                     disjoint_union, emit_edgelist, emit_graph6, empty,
                     ex32_g, ex32_gprime, fig1_left, fig1_right, from_edges,
                     grid_lattice, induced_subgraph, is_connected,
                     is_isomorphic, iterated_join, join, line_graph, mask_from,
                     parse_edgelist, parse_graph6, path, tensor)
from .spectra import (CharPoly, MatrixKind, char_poly, cospectral,
                      laplacian_join_identity_check, regular_cospectral_report,
                      regular_join_adjacency_check)
from .forcing import (BudgetExceededError, ForcingCertificate, Rule, ZfResult,
                      closure, verify_certificate, zero_forcing_number,
                      zf_join_formula_check)
from .constructions import (ConstructionPair, Expected, PreconditionError,
                            SwitchingPartition, corollary52_family,
                            circulant_h, gm_switch,
                            grid_shrikhande_report, join_family,
                            regular_construction, shrikhande,
                            switching_partition, tensor_family,
                            theorem51_build, torus_zero_forcing)
from .skew_rank import SkewWitness, exact_rank, max_nullity_witness_search
from .claims import ClaimReport, claim_ids, evaluate_claim, run_claims

from .claims import VERSION as __version__
