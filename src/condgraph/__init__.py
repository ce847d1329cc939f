"""Exact-arithmetic conduction graphs of molecular graphs.

A device attaches two leads to vertices of a connected simple graph; it
conducts at the Fermi level or not, decided here by exact selection rules.
The conduction graph records every verdict at once: an edge per conducting
pair of contacts, a loop per conducting single contact.  On top of that sit
conduction classes (omni-insulators, nut graphs, class codes), constructive
families of graphs isomorphic to their own conduction graph, a census
pipeline over enumerated graph classes, and transmission curves.
"""

from .graphs import (Graph, Graph6Error, adjacency_matrix, bipartition,
                     complete_bipartite_graph, complete_graph, cycle_graph,
                     degree_sequence, from_graph6, graph_from_adjacency,
                     is_bipartite, is_chemical, is_connected, path_graph,
                     star_graph, to_graph6)
from .linalg import (IntPolynomial, SingularMatrixError, char_poly, det,
                     float_spectrum, kernel_basis, nullity)
from .conduction import (ConductionGraph, DeviceVerdict, NullitySignature,
                         Rule, booleanise, conduction_graph, device_verdict,
                         graph_nullity, nullity_signature)
from .classify import (ClassCode, ClassificationReport, TheoremCheckError,
                       class_code, classification_report,
                       conduction_isomorphism, is_conduction_isomorphic,
                       is_ipso_omni_insulator, is_nut, is_uniform_core_graph)
from .isomorphism import (CanonicalData, are_isomorphic, automorphism_orbits,
                          canonical_form, canonical_labeling, find_isomorphism,
                          verify_witness)
from .families import (FAMILIES, appendix_family_graph, build_family,
                       canonical_double_cover, comb, corona, corona_spectrum,
                       f_matrix, large_min_deg_graph, min_deg2_graph, radialene,
                       witness_isomorphism)
from .census import (CensusRecord, CensusSummary, census_record,
                     enumerate_chemical, enumerate_connected, ingest_graph6,
                     run_census, run_census_persistent, verify_family_coverage)
from .fixtures import FIXTURE_NAMES, fixture
from .transmission import (DevicePolynomials, TransmissionCurve,
                           device_polynomials, evaluate_T, sweep)

__version__ = "0.1.0"
