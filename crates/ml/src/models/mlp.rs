//! A small feed-forward neural network (ReLU hidden layers, softmax output).
//!
//! Stands in for the paper's conv nets at the *serving* interface: a dense
//! model whose per-batch cost is dominated by matrix products, giving the
//! GPU-simulated containers a real compute kernel to run.

use super::{Label, Model};
use crate::datasets::Dataset;
use crate::linalg::{argmax, dot, softmax};
use rand::prelude::*;
use rand_distr::Normal;

/// Hyperparameters for [`Mlp::train`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Hidden layer widths, e.g. `vec![64, 32]`.
    pub hidden: Vec<usize>,
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![64],
            epochs: 8,
            lr: 0.1,
        }
    }
}

struct Layer {
    /// Row-major weights: `out` rows of `in` columns.
    w: Vec<Vec<f32>>,
    b: Vec<f32>,
}

impl Layer {
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.w
            .iter()
            .zip(self.b.iter())
            .map(|(row, &b)| dot(row, x) + b)
            .collect()
    }
}

/// Multi-layer perceptron classifier.
pub struct Mlp {
    name: String,
    num_classes: usize,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Train with vanilla backprop SGD (batch size 1).
    pub fn train(dataset: &Dataset, cfg: &MlpConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![dataset.num_features()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(dataset.num_classes());

        let mut layers: Vec<Layer> = dims
            .windows(2)
            .map(|w| {
                let (din, dout) = (w[0], w[1]);
                let std = (2.0 / din as f32).sqrt();
                let normal = Normal::new(0.0f32, std).expect("init normal");
                Layer {
                    w: (0..dout)
                        .map(|_| (0..din).map(|_| normal.sample(&mut rng)).collect())
                        .collect(),
                    b: vec![0.0; dout],
                }
            })
            .collect();

        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let ex = &dataset.train[i];
                // Forward pass, keeping activations.
                let mut acts: Vec<Vec<f32>> = vec![ex.x.clone()];
                for (li, layer) in layers.iter().enumerate() {
                    let mut z = layer.forward(acts.last().expect("activation"));
                    if li + 1 < layers.len() {
                        for v in z.iter_mut() {
                            *v = v.max(0.0); // ReLU
                        }
                    } else {
                        softmax(&mut z);
                    }
                    acts.push(z);
                }
                // Backward pass: delta at output = probs - onehot.
                let mut delta: Vec<f32> = acts.last().expect("output").clone();
                delta[ex.y as usize] -= 1.0;
                for li in (0..layers.len()).rev() {
                    let input = acts[li].clone();
                    // Propagate before mutating weights.
                    let mut next_delta = vec![0.0f32; input.len()];
                    for (j, row) in layers[li].w.iter().enumerate() {
                        for (k, &wjk) in row.iter().enumerate() {
                            next_delta[k] += delta[j] * wjk;
                        }
                    }
                    // ReLU derivative w.r.t. this layer's input activation.
                    if li > 0 {
                        for (nd, &a) in next_delta.iter_mut().zip(acts[li].iter()) {
                            if a <= 0.0 {
                                *nd = 0.0;
                            }
                        }
                    }
                    let layer = &mut layers[li];
                    for (j, row) in layer.w.iter_mut().enumerate() {
                        let g = delta[j];
                        if g != 0.0 {
                            for (wjk, &xk) in row.iter_mut().zip(input.iter()) {
                                *wjk -= cfg.lr * g * xk;
                            }
                            layer.b[j] -= cfg.lr * g;
                        }
                    }
                    delta = next_delta;
                }
            }
        }

        Mlp {
            name: "mlp".into(),
            num_classes: dataset.num_classes(),
            layers,
        }
    }
}

impl Model for Mlp {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_classes(&self) -> usize {
        self.num_classes
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut a = x.to_vec();
        let n = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            a = layer.forward(&a);
            if li + 1 < n {
                for v in a.iter_mut() {
                    *v = v.max(0.0);
                }
            } else {
                softmax(&mut a);
            }
        }
        a
    }
    fn predict(&self, x: &[f32]) -> Label {
        argmax(&self.scores(x)) as Label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;
    use crate::eval::accuracy;

    #[test]
    fn mlp_learns() {
        let ds = DatasetSpec::speech_like()
            .with_train_size(390)
            .with_test_size(100)
            .with_difficulty(0.3)
            .generate(91);
        let m = Mlp::train(&ds, &MlpConfig::default(), 5);
        let acc = accuracy(&m, &ds.test);
        assert!(acc > 0.6, "accuracy {acc}");
        assert_eq!(m.layers.len(), 2);
    }

    #[test]
    fn output_is_probability_vector() {
        let ds = DatasetSpec::speech_like()
            .with_train_size(100)
            .with_test_size(10)
            .generate(91);
        let m = Mlp::train(
            &ds,
            &MlpConfig {
                epochs: 1,
                ..Default::default()
            },
            5,
        );
        let s = m.scores(&ds.test[0].x);
        assert_eq!(s.len(), 39);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn deeper_config_builds_more_layers() {
        let ds = DatasetSpec::speech_like()
            .with_train_size(50)
            .with_test_size(10)
            .generate(91);
        let m = Mlp::train(
            &ds,
            &MlpConfig {
                hidden: vec![32, 16],
                epochs: 1,
                lr: 0.05,
            },
            5,
        );
        assert_eq!(m.layers.len(), 3);
    }
}
