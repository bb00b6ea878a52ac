//! Table 1 — the benchmark datasets.
//!
//! Prints the paper's corpus shapes next to the synthetic equivalents this
//! repo generates, plus a reference model's holdout accuracy on each (a
//! sanity check that the generators produce learnable data).

use clipper_ml::datasets::DatasetSpec;
use clipper_ml::eval::accuracy;
use clipper_ml::models::{LogisticRegression, LogisticRegressionConfig};
use clipper_workload::Table;

fn main() {
    println!("== Table 1: Datasets ==");
    println!("paper: MNIST 70K/28x28/10, CIFAR 60K/32x32x3/10, ImageNet 1.26M/299x299x3/1000, Speech 6300/5sec/39\n");

    let mut imagenet_scaled = DatasetSpec::imagenet_like();
    imagenet_scaled.num_classes = 200;
    imagenet_scaled.name = "imagenet-like (200c)".into();
    let specs = [
        DatasetSpec::mnist_like(),
        DatasetSpec::cifar_like(),
        DatasetSpec::imagenet_like()
            .with_train_size(1_000)
            .with_test_size(300),
        imagenet_scaled.with_train_size(5_000).with_test_size(300),
        DatasetSpec::speech_like(),
    ];

    let mut table = Table::new(&[
        "dataset",
        "paper size",
        "generated (train/test)",
        "features",
        "labels",
        "logreg holdout acc",
    ]);

    for spec in specs {
        let ds = spec.generate(42);
        let cfg = LogisticRegressionConfig {
            epochs: 2,
            ..Default::default()
        };
        let model = LogisticRegression::train(&ds, &cfg, 7);
        let acc = accuracy(&model, &ds.test);
        table.row(&[
            spec.name.clone(),
            format!("{}", spec.paper_size),
            format!("{}/{}", spec.train_size, spec.test_size),
            format!("{}", spec.num_features),
            format!("{}", spec.num_classes),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    table.print();
    println!("\n(generated sizes are scaled-down seeded mixtures, so every experiment fits a laptop budget)");
    println!("imagenet-like at full 1000 classes has ~1 example/class at this scale and is unlearnable by design;");
    println!("the 200-class variant with 25/class — used by the Figure-7 harness — shows the learnable regime.");
}
