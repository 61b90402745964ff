"""Generalized Mycielskian graphs, automorphisms, distinguishing numbers."""

from .automorphism import (AutListing, Budget, enumerate_automorphisms,
                           equitable_partition, find_isomorphism, orbit_of,
                           search_color_preserving)
from .constructions import (DistPrediction, isolate_case_coloring,
                            kn_base_coloring, lift_coloring, paper_coloring,
                            predict_dist)
from .distinguishing import (Coloring, DistResult, distinguishing_number,
                             quotient_dist, twin_lower_bound)
from .graph6 import (parse_edge_list, parse_graph6, write_edge_list,
                     write_graph6)
from .graphs import (Graph, Star, TwinQuotient, classify_star, complete_graph,
                     cycle_graph, isolated_vertices, path_graph, star_graph,
                     twin_classes, twin_partition, twin_quotient)
from .mycielskian import MycLayout, VertexRole, build_mycielskian
from .verify import (VerifyRecord, VerifyReport, process_record,
                     report_to_csv, report_to_json, run_verify)

__all__ = [name for name in dir() if not name.startswith("_")]
