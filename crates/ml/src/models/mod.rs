//! Model implementations and the common prediction trait.
//!
//! All models implement [`Model`]: per-class scores plus batch prediction.
//! The batch entry point matters because Clipper's whole batching layer
//! (§4.3 of the paper) exists to exploit models that amortize per-call
//! overhead across a batch.

mod knn;
mod linear;
mod mlp;
mod noop;
mod tree;

pub use knn::{Knn, KnnConfig};
pub use linear::{LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig};
pub use mlp::{Mlp, MlpConfig};
pub use noop::NoOpModel;
pub use tree::{DecisionTree, DecisionTreeConfig, RandomForest, RandomForestConfig};

use crate::linalg::argmax;

/// A class label.
pub type Label = u32;

/// The common prediction interface (the paper's `Predict(m, x) -> y`).
///
/// Implementations must be `Send + Sync`: model containers evaluate batches
/// from worker threads.
pub trait Model: Send + Sync {
    /// Short human-readable name, e.g. `"linear-svm"`.
    fn name(&self) -> &str;

    /// Number of classes this model scores.
    fn num_classes(&self) -> usize;

    /// Per-class scores for one input; higher is more likely. Length must
    /// equal [`Model::num_classes`].
    fn scores(&self, x: &[f32]) -> Vec<f32>;

    /// Predicted label for one input (argmax of scores by default).
    fn predict(&self, x: &[f32]) -> Label {
        argmax(&self.scores(x)) as Label
    }

    /// Predict a whole batch (the Listing-1 container interface). The
    /// default maps [`Model::predict`] over the batch; models with real
    /// batch-level optimizations may override.
    fn predict_batch(&self, xs: &[&[f32]]) -> Vec<Label> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Score a whole batch.
    fn scores_batch(&self, xs: &[&[f32]]) -> Vec<Vec<f32>> {
        xs.iter().map(|x| self.scores(x)).collect()
    }
}

/// Blanket impl so `Arc<M>` and `Box<M>` are models too.
impl<M: Model + ?Sized> Model for std::sync::Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        (**self).scores(x)
    }
    fn predict(&self, x: &[f32]) -> Label {
        (**self).predict(x)
    }
    fn predict_batch(&self, xs: &[&[f32]]) -> Vec<Label> {
        (**self).predict_batch(xs)
    }
    fn scores_batch(&self, xs: &[&[f32]]) -> Vec<Vec<f32>> {
        (**self).scores_batch(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Fixed;
    impl Model for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn num_classes(&self) -> usize {
            3
        }
        fn scores(&self, x: &[f32]) -> Vec<f32> {
            vec![x[0], x[0] * 2.0, 0.5]
        }
    }

    #[test]
    fn default_predict_is_argmax_of_scores() {
        let m = Fixed;
        assert_eq!(m.predict(&[1.0]), 1);
        assert_eq!(m.predict(&[-1.0]), 2);
    }

    #[test]
    fn default_batch_maps_predict() {
        let m = Fixed;
        let a = vec![1.0f32];
        let b = vec![-2.0f32];
        let batch: Vec<&[f32]> = vec![&a, &b];
        assert_eq!(m.predict_batch(&batch), vec![1, 2]);
        assert_eq!(m.scores_batch(&batch).len(), 2);
    }

    #[test]
    fn arc_model_delegates() {
        let m: Arc<dyn Model> = Arc::new(Fixed);
        assert_eq!(m.name(), "fixed");
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.predict(&[1.0]), 1);
    }
}
