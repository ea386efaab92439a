"""Real-time online adaptation on a 30 FPS camera stream.

The deployment scenario of the paper: a vehicle drives through an unseen
target domain while the deployed UFLD model adapts after every frame.
This script runs the :class:`repro.pipeline.RealTimePipeline` over a
temporally coherent MoLane target stream, tracks rolling accuracy and
deadline behaviour (with per-frame latency taken from the Jetson Orin
60 W model at paper scale), and prints the adaptation learning curve.

    python examples/realtime_stream.py
"""

import numpy as np

from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.data import make_benchmark
from repro.hw import ORIN_POWER_MODES
from repro.models import build_model, get_config
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.train import SourceTrainer, TrainConfig

NUM_FRAMES = 120


def main() -> None:
    print("preparing source-trained model...")
    benchmark = make_benchmark(
        "molane", get_config("tiny-r18"),
        source_frames=150, target_train_frames=8, target_test_frames=8, seed=0,
    )
    rng = np.random.default_rng(0)
    model = build_model("tiny-r18", num_lanes=2, rng=rng)
    SourceTrainer(model, TrainConfig(epochs=10, lr=0.02, batch_size=16)).fit(
        benchmark.source_train, rng
    )

    adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3, batch_size=1))
    pipeline = RealTimePipeline(
        model,
        adapter,
        PipelineConfig(latency_model="orin"),
        device=ORIN_POWER_MODES["orin-60w"],
        spec=get_config("paper-r18").to_spec(),
    )

    print(f"driving {NUM_FRAMES} frames through the model-vehicle domain...\n")
    stream = benchmark.target_stream(rng=np.random.default_rng(7))
    report = pipeline.run(stream, NUM_FRAMES)

    # learning curve in 20-frame windows
    print("frames   rolling accuracy   mean latency")
    for start in range(0, NUM_FRAMES, 20):
        window = report.frames[start : start + 20]
        acc = 100 * np.mean([f.accuracy for f in window])
        lat = np.mean([f.latency_ms for f in window])
        bar = "#" * int(acc / 2.5)
        print(f"{start:3d}-{start + 19:3d}   {acc:5.1f}% {bar:<40s} {lat:5.1f} ms")

    summary = report.summary()
    print(
        f"\noverall: accuracy {100 * summary['mean_accuracy']:.1f}%, "
        f"mean latency {summary['mean_latency_ms']:.1f} ms, "
        f"deadline misses {100 * summary['deadline_miss_rate']:.1f}% "
        f"(deadline {report.deadline_ms:.1f} ms), "
        f"{report.adaptation_steps} adaptation steps"
    )


if __name__ == "__main__":
    main()
