"""cesel: cluster ensemble selection.

Base clusterings are generated, gated into a committee by a diversity
threshold, weighted by how independently their algorithms work (scored
from small modeling-language scripts via graph comparison), and fused by
weighted evidence accumulation with an average-linkage cut.
"""

from .assets import reference_aidm
from .cail import (
    CailScript,
    GraphArray,
    IndependencyGraph,
    Scmt,
    build_graph,
    export_dot,
    load_scmt,
    load_script,
    parse_cail,
    script_to_array,
    to_graph_array,
)
from .clusterers import (
    ALGORITHM_IDS,
    BasicParams,
    ClustererConfig,
    Dataset,
    Partition,
    preprocess,
    run_algorithm,
    run_fcm,
    run_kmeans,
    run_linkage,
    run_spectral_sparse,
)
from .consensus import (
    CommitteeEntry,
    PipelineConfig,
    RunReport,
    average_linkage,
    cut,
    eac,
    run_ces,
    weac,
)
from .diversity import DiversityReport, aapmm, aapmm_raw, admit, apmm, uniformity
from .harness import (
    ExperimentSpec,
    accuracy,
    gen_blobs,
    gen_half_ring,
    inject_missing,
    inject_noise,
    load_csv,
    run_experiment,
    save_csv,
    sweep_dt,
)
from .independency import (
    Aidm,
    Cddm,
    ai_weights,
    aid,
    bpi,
    build_aidm,
    build_cddm,
    compare_cells,
    load_aidm_csv,
    max_cells,
    save_aidm_csv,
)

__version__ = "0.1.0"
