//! From-scratch machine-learning substrate for Clipper.
//!
//! The Clipper paper serves models trained in Scikit-Learn, Spark MLlib,
//! TensorFlow, Caffe, and HTK. Those frameworks are not available here, so
//! this crate implements the *same model families* directly in Rust:
//!
//! | Paper model | This crate |
//! |---|---|
//! | SKLearn/PySpark linear SVM | [`models::LinearSvm`] (one-vs-rest hinge SGD) |
//! | SKLearn logistic regression | [`models::LogisticRegression`] (softmax SGD) |
//! | SKLearn kernel SVM | its Figure-3 latency profile only (`Fig3Model::KernelSvmSklearn` in `clipper-containers`) |
//! | SKLearn random forest | [`models::RandomForest`] / [`models::DecisionTree`] |
//! | Caffe/TensorFlow conv nets | [`models::Mlp`] + the GPU latency simulator in `clipper-containers` |
//! | HTK HMM phoneme models | [`speech::DialectModel`] |
//!
//! What matters to the serving experiments is that these models have the
//! *native computational shape* of their framework counterparts: the linear
//! SVM really is a single dense dot product per class. The kernel SVM's
//! O(supports × dims) per-query cost, orders of magnitude above the linear
//! SVM's, enters only as its calibrated Figure-3 latency profile.
//!
//! Datasets are seeded synthetic Gaussian mixtures shaped after Table 1
//! (MNIST 784×10, CIFAR 3072×10, ImageNet-like high-dimensional many-class,
//! TIMIT-like 8-dialect speech); see [`datasets`].

pub mod datasets;
pub mod eval;
pub mod linalg;
pub mod models;
pub mod speech;
