"""Fig. 3 — distributions of probe packet latencies on the (simulated) Cab.

Paper claims reproduced here:
* the idle switch shows ~1.25 µs typical latency with a small slow tail;
* running applications shift the distribution right — FFTW strongly,
  Lulesh/MILC move the mode, MCB fattens the tail;
* the network-quiet apps (MCB) shift far less than FFTW.
"""

from conftest import save_artifact

from repro.analysis.report import fig3


def test_fig3_latency_distributions(benchmark, pipeline, artifact_dir):
    signatures, text = benchmark.pedantic(
        fig3, args=(pipeline,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, "fig3_latency_distributions.txt", text)
    idle = signatures["idle"]

    # Shape checks (paper Fig. 3):
    assert 0.5e-6 < idle.mean < 3e-6, "idle latency should be ~1µs"
    if "fftw" in signatures:
        assert signatures["fftw"].mean > 1.5 * idle.mean, (
            "FFTW must visibly shift the probe distribution right"
        )
    if "mcb" in signatures and "fftw" in signatures:
        assert signatures["fftw"].mean > signatures["mcb"].mean, (
            "the network-quiet MCB shifts the mean less than FFTW"
        )
