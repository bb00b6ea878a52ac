//! CART decision trees and bagged random forests.
//!
//! Forests are the paper's workhorse for the straggler-mitigation study
//! (Figure 9 uses SK-Learn random forests on MNIST): per-query cost is a
//! handful of comparisons per tree, and ensemble accuracy grows with the
//! number of trees — exactly the accuracy-vs-latency trade the selection
//! layer navigates.

use super::Model;
use crate::datasets::{Dataset, Example};
use rand::prelude::*;

/// Hyperparameters for [`DecisionTree::train`].
#[derive(Clone, Debug)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` = all features.
    pub feature_subsample: Option<usize>,
    /// Candidate thresholds tried per feature.
    pub thresholds_per_feature: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 10,
            min_samples_split: 4,
            feature_subsample: None,
            thresholds_per_feature: 8,
        }
    }
}

enum Node {
    Leaf {
        /// Class-probability histogram at the leaf.
        probs: Vec<f32>,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A single CART-style classification tree (gini impurity).
pub struct DecisionTree {
    name: String,
    num_classes: usize,
    root: Node,
}

struct TreeBuilder<'a> {
    examples: &'a [Example],
    num_classes: usize,
    cfg: &'a DecisionTreeConfig,
    rng: StdRng,
}

impl<'a> TreeBuilder<'a> {
    fn class_histogram(&self, idx: &[usize]) -> Vec<f32> {
        let mut h = vec![0.0f32; self.num_classes];
        for &i in idx {
            h[self.examples[i].y as usize] += 1.0;
        }
        let total: f32 = h.iter().sum();
        if total > 0.0 {
            for v in h.iter_mut() {
                *v /= total;
            }
        }
        h
    }

    fn gini(hist: &[f32]) -> f32 {
        1.0 - hist.iter().map(|p| p * p).sum::<f32>()
    }

    fn build(&mut self, idx: &mut [usize], depth: usize) -> Node {
        let hist = self.class_histogram(idx);
        let pure = hist.iter().any(|&p| p >= 0.9999);
        if depth >= self.cfg.max_depth || idx.len() < self.cfg.min_samples_split || pure {
            return Node::Leaf { probs: hist };
        }

        let d = self.examples[0].x.len();
        let n_feats = self.cfg.feature_subsample.unwrap_or(d).min(d);
        let mut features: Vec<usize> = (0..d).collect();
        features.shuffle(&mut self.rng);
        features.truncate(n_feats);

        let parent_gini = Self::gini(&hist);
        let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, gain)

        for &f in &features {
            // Candidate thresholds from random example values of feature f.
            for _ in 0..self.cfg.thresholds_per_feature {
                let pick = idx[self.rng.random_range(0..idx.len())];
                let t = self.examples[pick].x[f];
                let (mut lh, mut rh) = (
                    vec![0.0f32; self.num_classes],
                    vec![0.0f32; self.num_classes],
                );
                let (mut ln, mut rn) = (0f32, 0f32);
                for &i in idx.iter() {
                    if self.examples[i].x[f] <= t {
                        lh[self.examples[i].y as usize] += 1.0;
                        ln += 1.0;
                    } else {
                        rh[self.examples[i].y as usize] += 1.0;
                        rn += 1.0;
                    }
                }
                if ln == 0.0 || rn == 0.0 {
                    continue;
                }
                for v in lh.iter_mut() {
                    *v /= ln;
                }
                for v in rh.iter_mut() {
                    *v /= rn;
                }
                let total = ln + rn;
                let weighted = (ln / total) * Self::gini(&lh) + (rn / total) * Self::gini(&rh);
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((f, t, gain));
                }
            }
        }

        match best {
            Some((f, t, gain)) if gain > 1e-6 => {
                let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| self.examples[i].x[f] <= t);
                if left_idx.is_empty() || right_idx.is_empty() {
                    return Node::Leaf { probs: hist };
                }
                let left = self.build(&mut left_idx, depth + 1);
                let right = self.build(&mut right_idx, depth + 1);
                Node::Split {
                    feature: f,
                    threshold: t,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf { probs: hist },
        }
    }
}

impl DecisionTree {
    /// Train on the dataset's train split.
    pub fn train(dataset: &Dataset, cfg: &DecisionTreeConfig, seed: u64) -> Self {
        Self::train_on(&dataset.train, dataset.num_classes(), cfg, seed)
    }

    /// Train on an explicit example set (used by forests for bootstrap bags).
    pub fn train_on(
        examples: &[Example],
        num_classes: usize,
        cfg: &DecisionTreeConfig,
        seed: u64,
    ) -> Self {
        assert!(!examples.is_empty(), "cannot train a tree on zero examples");
        let mut builder = TreeBuilder {
            examples,
            num_classes,
            cfg,
            rng: StdRng::seed_from_u64(seed),
        };
        let mut idx: Vec<usize> = (0..examples.len()).collect();
        let root = builder.build(&mut idx, 0);
        DecisionTree {
            name: "decision-tree".into(),
            num_classes,
            root,
        }
    }
}

impl Model for DecisionTree {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_classes(&self) -> usize {
        self.num_classes
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { probs } => return probs.clone(),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Hyperparameters for [`RandomForest::train`].
#[derive(Clone, Debug)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree config; `feature_subsample` defaults to √d when `None`.
    pub tree: DecisionTreeConfig,
    /// Bootstrap sample fraction per tree.
    pub bootstrap_fraction: f64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            num_trees: 16,
            tree: DecisionTreeConfig::default(),
            bootstrap_fraction: 0.8,
        }
    }
}

/// Bagged ensemble of decision trees; scores are averaged leaf histograms.
pub struct RandomForest {
    name: String,
    num_classes: usize,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Train `num_trees` trees on bootstrap bags of the train split.
    pub fn train(dataset: &Dataset, cfg: &RandomForestConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = dataset.train.len();
        let bag = ((n as f64 * cfg.bootstrap_fraction) as usize).max(1);
        let d = dataset.num_features();
        let mut tree_cfg = cfg.tree.clone();
        if tree_cfg.feature_subsample.is_none() {
            tree_cfg.feature_subsample = Some((d as f64).sqrt().ceil() as usize);
        }
        let trees = (0..cfg.num_trees)
            .map(|t| {
                let bag_examples: Vec<Example> = (0..bag)
                    .map(|_| dataset.train[rng.random_range(0..n)].clone())
                    .collect();
                DecisionTree::train_on(
                    &bag_examples,
                    dataset.num_classes(),
                    &tree_cfg,
                    seed.wrapping_add(t as u64 + 1),
                )
            })
            .collect();
        RandomForest {
            name: "random-forest".into(),
            num_classes: dataset.num_classes(),
            trees,
        }
    }

    /// Number of trees in the forest.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Model for RandomForest {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_classes(&self) -> usize {
        self.num_classes
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.num_classes];
        for tree in &self.trees {
            let s = tree.scores(x);
            for (a, v) in acc.iter_mut().zip(s.iter()) {
                *a += v;
            }
        }
        let nt = self.trees.len().max(1) as f32;
        for a in acc.iter_mut() {
            *a /= nt;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Longest root-to-leaf path.
    fn depth(n: &Node) -> usize {
        match n {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
        }
    }
    use crate::datasets::DatasetSpec;
    use crate::eval::accuracy;

    fn small_ds() -> Dataset {
        DatasetSpec::speech_like()
            .with_train_size(390)
            .with_test_size(100)
            .with_difficulty(0.3)
            .generate(55)
    }

    #[test]
    fn tree_learns_something() {
        let ds = small_ds();
        let m = DecisionTree::train(&ds, &DecisionTreeConfig::default(), 3);
        let acc = accuracy(&m, &ds.test);
        // Single trees on 39 classes are weak but must beat chance (1/39).
        assert!(acc > 0.15, "accuracy {acc}");
        assert!(depth(&m.root) <= 10);
    }

    #[test]
    fn forest_beats_single_tree() {
        let ds = small_ds();
        let tree = DecisionTree::train(&ds, &DecisionTreeConfig::default(), 3);
        let forest = RandomForest::train(&ds, &RandomForestConfig::default(), 3);
        let ta = accuracy(&tree, &ds.test);
        let fa = accuracy(&forest, &ds.test);
        assert!(fa >= ta, "forest {fa} vs tree {ta}");
        assert_eq!(forest.num_trees(), 16);
    }

    #[test]
    fn leaf_scores_are_probabilities() {
        let ds = small_ds();
        let m = DecisionTree::train(&ds, &DecisionTreeConfig::default(), 3);
        let s = m.scores(&ds.test[0].x);
        let sum: f32 = s.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "leaf histogram sums to 1, got {sum}"
        );
    }

    #[test]
    fn max_depth_is_respected() {
        let ds = small_ds();
        let cfg = DecisionTreeConfig {
            max_depth: 3,
            ..Default::default()
        };
        let m = DecisionTree::train(&ds, &cfg, 3);
        assert!(depth(&m.root) <= 3);
    }

    #[test]
    #[should_panic(expected = "zero examples")]
    fn empty_training_set_panics() {
        DecisionTree::train_on(&[], 10, &DecisionTreeConfig::default(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = small_ds();
        let a = RandomForest::train(&ds, &RandomForestConfig::default(), 12);
        let b = RandomForest::train(&ds, &RandomForestConfig::default(), 12);
        assert_eq!(a.scores(&ds.test[0].x), b.scores(&ds.test[0].x));
    }
}
