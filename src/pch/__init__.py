"""Properly coloured Hamiltonian structures in edge-coloured complete graphs.

Extremal colourings, chord rotations producing properly coloured 2-factors,
absorbing cycles, exhaustive oracles at small n, and an end-to-end pipeline
assembling a properly coloured Hamiltonian cycle.
"""

from pch.ec_graph import (
    Certificate,
    ColouredComplete,
    ColouredGraph,
    DirectedCycle,
    DirectedPath,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    max_mono_degree,
    min_colour_degree,
    read_graph,
    verify_certificate,
    write_graph,
)
from pch.constructions import (
    GenerationError,
    OrientedGraph,
    bollobas_erdos,
    colouring_from_oriented,
    layered_colouring,
    monochromatic,
    near_bollobas_erdos,
    rainbow,
    random_bounded_colouring,
    tournament_with_source,
)
from pch.exact import (
    SearchBudget,
    SearchStatus,
    exact_pc_ham_cycle,
    exact_pc_ham_path,
    exact_pc_two_factor,
    longest_pc_cycle,
    longest_pc_path,
)
from pch.rotations import (
    Chord,
    PathCycleSystem,
    apply_chord_sequence,
    combine_rotation_sequences,
    expand_endpoint_colours,
    find_chords,
    find_pc_ham_path_heuristic,
    find_pc_two_factor,
    is_spread_out,
    maximal_path_cycle,
    rotate,
    rotation_targets,
)
from pch.absorbing import (
    AbsorbingCycle,
    AbsorptionError,
    BuildParams,
    absorb_path,
    build_absorbing_cycle,
    count_absorbing,
    enumerate_absorbing,
    is_absorbing,
    join_ends,
    verify_family_universality,
)
from pch.pipeline import PipelineConfig, check_constants, run_pipeline

__version__ = "0.1.0"
