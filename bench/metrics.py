"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json lists the same metrics; its bounds apply to END_TO_END.
"""

MIN_DIMS = (2, 4, 8, 16)
CLI_SUBCOMMANDS = ("entropy", "unitary-min", "zeno", "mzi", "protocol", "bound")

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# (name, unit, better).  Counts marked computed in COMPUTED are derived from
# call arguments and array shapes; they repeat exactly for a seed.
PER_LAYER = (
    [
        ("linalg.as_matrix.calls_per_op", "1/op", "lower"),
        ("linalg.is_hermitian.calls_per_op", "1/op", "lower"),
        ("linalg.is_unitary.calls_per_op", "1/op", "lower"),
        ("linalg.self_us_per_op", "us", "lower"),
        ("states.DensityMatrix.calls_per_op", "1/op", "lower"),
        ("states.DensityMatrix.us_per_call", "us", "lower"),
        ("states.evolve_unitary.us_per_call", "us", "lower"),
        ("states.measure_collapse.us_per_call", "us", "lower"),
        ("states.dephase.us_per_call", "us", "lower"),
        ("numpy.eigvalsh.calls_per_op", "1/op", "lower"),
        ("numpy.eigh.calls_per_op", "1/op", "lower"),
        ("entropy.informational.us_per_call", "us", "lower"),
        ("entropy.von_neumann.us_per_call", "us", "lower"),
        ("entropy.ensemble_bound_check.us_per_call", "us", "lower"),
    ]
    + [(f"entropy.min_informational.ms_per_call.d{d}", "ms", "lower") for d in MIN_DIMS]
    + [(f"entropy.min_informational.evaluations.d{d}", "count", "lower") for d in MIN_DIMS]
    + [(f"entropy.min_informational.worst_residual.d{d}", "bits", "lower") for d in MIN_DIMS]
    + [(f"entropy.min_informational.failures.d{d}", "ratio", "lower") for d in MIN_DIMS]
    + [
        ("entropy.min_informational.eig_calls_in_search", "count", "lower"),
        ("entropy.min_informational.share_of_op", "ratio", "lower"),
        ("zeno.simulate_steering.draws", "count", "lower"),
        ("zeno.simulate_steering.draws_per_s", "1/s", "higher"),
        ("zeno.simulate_steering.bytes_computed", "B", "lower"),
        ("protocol.eve_attack_success.draws", "count", "lower"),
        ("protocol.eve_attack_success.draws_per_s", "1/s", "higher"),
        ("protocol.estimate_theta_bruteforce.ms_per_call", "ms", "lower"),
        ("protocol.estimate_theta_adaptive.ms_per_call", "ms", "lower"),
        ("interferometer.simulate_photons.us_per_call", "us", "lower"),
        ("interferometer.self_us_per_op", "us", "lower"),
        ("serialize.matrix_from_json.us_per_call", "us", "lower"),
        ("serialize.load_json.us_per_call", "us", "lower"),
        ("serialize.write_csv.us_per_call", "us", "lower"),
        ("serialize.write_csv.bytes_per_call", "B", "lower"),
        ("cli.build_parser.ms_per_call", "ms", "lower"),
        ("cli.main.self_ms_per_call", "ms", "lower"),
    ]
    + [(f"cli.{sub}.ms_p50", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    + [
        ("setup.import_s", "s", "lower"),
        ("setup.inputs_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)

COMPUTED = tuple(
    [f"entropy.min_informational.evaluations.d{d}" for d in MIN_DIMS]
    + [
        "zeno.simulate_steering.draws",
        "zeno.simulate_steering.bytes_computed",
        "protocol.eve_attack_success.draws",
        "serialize.write_csv.bytes_per_call",
    ]
)


