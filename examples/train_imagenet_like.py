#!/usr/bin/env python3
"""ImageNet-style experiment: ResNet-18 stem trained in FP32 and in 16-bit posit.

Reduced-scale analogue of the paper's ImageNet experiment (Table III, right
column): ResNet-18 trained with posit(16,1) for the forward pass and weight
update and posit(16,2) for the backward pass, after 5 epochs of FP32 warm-up.

Differences from the paper, forced by the offline CPU setting: the dataset is the synthetic imagenet-like generator (64x64
images, 20 classes) instead of ImageNet-1k, the model keeps the ImageNet stem
(7x7 stride-2 conv + max pool + 4 stages) but uses a width of 8, and the run
is a handful of epochs.  The claim under test is the relative one: the 16-bit
posit run tracks the FP32 run.

The wiring is declarative through :mod:`repro.api`.

Run with:  python examples/train_imagenet_like.py [--epochs N]
"""

from __future__ import annotations

import argparse
import time

from repro.api import ExperimentConfig, build_experiment


def run(label: str, policy, warmup_epochs: int, args) -> dict:
    config = ExperimentConfig(
        name=label,
        dataset="imagenet_like",
        model="imagenet_resnet",
        policy=policy,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        weight_decay=1e-4,
        warmup_epochs=warmup_epochs,
        scheduler="step",
        train_size=args.train_size,
        test_size=args.test_size,
        num_classes=args.classes,
        data_seed=args.data_seed,
        verbose=args.verbose,
        data_kwargs={"image_size": args.image_size},
    )
    start = time.time()
    history = build_experiment(config).run()
    elapsed = time.time() - start
    print(f"{label:<42} val acc {history.final_val_accuracy:.3f} "
          f"(best {history.best_val_accuracy:.3f})  [{elapsed:.0f}s]")
    return {"label": label, "accuracy": history.final_val_accuracy}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--train-size", type=int, default=384)
    parser.add_argument("--test-size", type=int, default=192)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--image-size", type=int, default=32)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--data-seed", type=int, default=2)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    print("ImageNet-like experiment (Table III, reduced scale)")
    print(f"  dataset: {args.train_size} train / {args.test_size} test synthetic "
          f"{args.image_size}x{args.image_size} images, {args.classes} classes")
    print(f"  model:   ResNet (ImageNet stem, width 8), {args.epochs} epochs\n")

    results = [
        run("FP32 baseline", "fp32", 0, args),
        run("posit(16,1) fwd/update, (16,2) bwd, warm-up",
            "imagenet_paper", min(2, args.epochs - 1), args),
    ]
    gap = results[0]["accuracy"] - results[1]["accuracy"]
    print(f"\nFP32-vs-posit16 accuracy gap: {gap:+.3f} "
          f"(the paper reports -0.07 %, i.e. posit slightly ahead)")


if __name__ == "__main__":
    main()
