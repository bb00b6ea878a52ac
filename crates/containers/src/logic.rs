//! What a container computes (separately from how long it takes).

use clipper_ml::models::Model;
use clipper_ml::speech::{DialectModel, Utterance};
use clipper_rpc::message::WireOutput;
use clipper_rpc::transport::Input;
use std::sync::Arc;

/// The prediction function a container hosts.
#[derive(Clone)]
pub enum ContainerLogic {
    /// A classifier returning its argmax label.
    Classifier(Arc<dyn Model>),
    /// A classifier returning its full score vector.
    Scorer(Arc<dyn Model>),
    /// A speech model transcribing flattened utterances to label sequences.
    Transcriber(Arc<DialectModel>),
    /// A constant answer (the No-Op container of Figure 3d).
    Fixed(WireOutput),
}

impl ContainerLogic {
    /// Evaluate a whole batch of shared feature vectors, preserving order.
    pub(crate) fn evaluate(&self, inputs: &[Input]) -> Vec<WireOutput> {
        match self {
            ContainerLogic::Classifier(m) => {
                let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
                m.predict_batch(&refs)
                    .into_iter()
                    .map(WireOutput::Class)
                    .collect()
            }
            ContainerLogic::Scorer(m) => {
                let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
                m.scores_batch(&refs)
                    .into_iter()
                    .map(WireOutput::Scores)
                    .collect()
            }
            ContainerLogic::Transcriber(m) => inputs
                .iter()
                .map(|flat| {
                    let frames = Utterance::unflatten(flat);
                    WireOutput::Labels(m.transcribe(&frames))
                })
                .collect(),
            ContainerLogic::Fixed(out) => vec![out.clone(); inputs.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipper_ml::models::NoOpModel;
    use clipper_rpc::transport::as_inputs;

    #[test]
    fn fixed_logic_replicates_answer() {
        let l = ContainerLogic::Fixed(WireOutput::Class(7));
        let out = l.evaluate(&as_inputs(vec![vec![0.0], vec![1.0], vec![2.0]]));
        assert_eq!(out, vec![WireOutput::Class(7); 3]);
    }

    #[test]
    fn classifier_logic_returns_labels() {
        let l = ContainerLogic::Classifier(Arc::new(NoOpModel::new(5)));
        let out = l.evaluate(&as_inputs(vec![vec![0.0; 4]; 2]));
        assert_eq!(out, vec![WireOutput::Class(0); 2]);
    }

    #[test]
    fn scorer_logic_returns_score_vectors() {
        let l = ContainerLogic::Scorer(Arc::new(NoOpModel::new(3)));
        let out = l.evaluate(&as_inputs(vec![vec![0.0]]));
        match &out[0] {
            WireOutput::Scores(s) => assert_eq!(s.len(), 3),
            other => panic!("expected scores, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let l = ContainerLogic::Fixed(WireOutput::Class(0));
        assert!(l.evaluate(&[]).is_empty());
    }
}
