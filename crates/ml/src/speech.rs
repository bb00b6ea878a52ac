//! TIMIT-like speech workload: dialects, speakers, utterances, and
//! per-dialect phoneme recognizers.
//!
//! The paper's speech benchmark (§2.1, Figure 10) serves HTK-trained hidden
//! Markov models personalized per dialect: 630 speakers across 8 dialects
//! of English, 39 phoneme classes. We reproduce the *statistical structure*
//! that drives Figure 10: each dialect shifts the acoustic feature
//! distribution, so a model trained on dialect A transcribes dialect A
//! speakers better than dialect B speakers, and a dialect-oblivious model
//! sits in between.
//!
//! A [`DialectModel`] is a frame-level Gaussian classifier (nearest
//! class-mean, the building block of an HMM's emission model) applied
//! per-frame to an utterance; the loss is the phoneme error rate.

use crate::eval::sequence_error_rate;
use crate::models::Label;
use rand::prelude::*;
use rand_distr::Normal;

/// Number of phoneme classes (TIMIT's folded 39-phone set).
const NUM_PHONEMES: usize = 39;
/// Number of English dialect regions in TIMIT.
pub const NUM_DIALECTS: usize = 8;
/// Speakers in the TIMIT corpus.
pub const NUM_SPEAKERS: usize = 630;
/// MFCC-style feature dimensionality (13 coefficients × Δ, ΔΔ).
const FRAME_DIM: usize = 39;

/// One spoken utterance: a sequence of acoustic frames plus the true
/// phoneme transcription.
#[derive(Clone, Debug)]
pub struct Utterance {
    /// Speaker id in `0..NUM_SPEAKERS`.
    pub speaker: u32,
    /// Dialect region in `0..NUM_DIALECTS`.
    pub dialect: u32,
    /// Acoustic frames, each `FRAME_DIM` floats.
    pub frames: Vec<Vec<f32>>,
    /// True phoneme label per frame.
    pub phonemes: Vec<Label>,
}

impl Utterance {
    /// Flatten frames into one feature vector (how the serving layer ships
    /// an utterance to a container).
    pub fn flatten(&self) -> Vec<f32> {
        self.frames.iter().flatten().copied().collect()
    }

    /// Rebuild frames from a flattened vector.
    pub fn unflatten(flat: &[f32]) -> Vec<Vec<f32>> {
        flat.chunks(FRAME_DIM).map(|c| c.to_vec()).collect()
    }
}

/// The generative speech corpus: base phoneme means plus per-dialect,
/// per-phoneme shifts.
///
/// Shifts must vary *per phoneme* (real dialects move specific vowels, not
/// the whole acoustic space): a uniform translation of every class mean
/// would nearly cancel in nearest-mean classification and dialect models
/// would confer no advantage.
pub struct SpeechCorpus {
    /// Base acoustic mean per phoneme.
    base_means: Vec<Vec<f32>>,
    /// Additive shift per `[dialect][phoneme]`.
    dialect_shifts: Vec<Vec<Vec<f32>>>,
    noise_sigma: f32,
    /// Dialect of each speaker.
    speaker_dialects: Vec<u32>,
}

impl SpeechCorpus {
    /// Build the corpus deterministically from a seed.
    ///
    /// `dialect_strength` scales how far dialects shift the acoustics:
    /// larger values make dialect-specific models more valuable (steeper
    /// Figure-10 separation).
    fn generate(seed: u64, dialect_strength: f32, noise_sigma: f32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let unit = Normal::new(0.0f32, 1.0f32).expect("unit normal");
        let sphere_vec = |dim: usize, scale: f32, rng: &mut StdRng| -> Vec<f32> {
            let mut v: Vec<f32> = (0..dim).map(|_| unit.sample(rng)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in v.iter_mut() {
                *x *= scale / norm;
            }
            v
        };
        let base_means: Vec<Vec<f32>> = (0..NUM_PHONEMES)
            .map(|_| sphere_vec(FRAME_DIM, 1.0, &mut rng))
            .collect();
        let dialect_shifts: Vec<Vec<Vec<f32>>> = (0..NUM_DIALECTS)
            .map(|_| {
                (0..NUM_PHONEMES)
                    .map(|_| sphere_vec(FRAME_DIM, dialect_strength, &mut rng))
                    .collect()
            })
            .collect();
        // TIMIT's dialect regions are unevenly sized; round-robin is close
        // enough for the serving experiments.
        let speaker_dialects = (0..NUM_SPEAKERS)
            .map(|s| (s % NUM_DIALECTS) as u32)
            .collect();
        SpeechCorpus {
            base_means,
            dialect_shifts,
            noise_sigma,
            speaker_dialects,
        }
    }

    /// Default corpus matching the Figure-10 regime: dialect structure is
    /// strong enough that per-dialect models clearly beat a global model.
    pub fn default_corpus(seed: u64) -> Self {
        Self::generate(seed, 0.6, 0.35)
    }

    /// The dialect of `speaker`.
    pub fn dialect_of(&self, speaker: u32) -> u32 {
        self.speaker_dialects[speaker as usize % NUM_SPEAKERS]
    }

    /// Sample one utterance of `len` frames for `speaker`.
    pub fn utterance(&self, speaker: u32, len: usize, rng: &mut StdRng) -> Utterance {
        let dialect = self.dialect_of(speaker);
        let shifts = &self.dialect_shifts[dialect as usize];
        let noise = Normal::new(0.0f32, self.noise_sigma).expect("noise normal");
        let mut frames = Vec::with_capacity(len);
        let mut phonemes = Vec::with_capacity(len);
        for _ in 0..len {
            let p = rng.random_range(0..NUM_PHONEMES) as u32;
            let mean = &self.base_means[p as usize];
            let shift = &shifts[p as usize];
            let frame: Vec<f32> = mean
                .iter()
                .zip(shift.iter())
                .map(|(&m, &s)| m + s + noise.sample(rng))
                .collect();
            frames.push(frame);
            phonemes.push(p);
        }
        Utterance {
            speaker,
            dialect,
            frames,
            phonemes,
        }
    }

    /// Sample a training set of utterances restricted to one dialect
    /// (`Some(d)`) or drawn across all dialects (`None` — the
    /// dialect-oblivious model's training data).
    pub fn training_utterances(
        &self,
        dialect: Option<u32>,
        count: usize,
        frames_per_utt: usize,
        seed: u64,
    ) -> Vec<Utterance> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let speaker = loop {
                    let s = rng.random_range(0..NUM_SPEAKERS) as u32;
                    match dialect {
                        Some(d) if self.dialect_of(s) != d => continue,
                        _ => break s,
                    }
                };
                self.utterance(speaker, frames_per_utt, &mut rng)
            })
            .collect()
    }
}

/// A frame-level phoneme recognizer: per-phoneme Gaussian means estimated
/// from utterances (the emission model of an HTK-style HMM).
pub struct DialectModel {
    /// Estimated mean per phoneme.
    means: Vec<Vec<f32>>,
}

impl DialectModel {
    /// Estimate phoneme means from training utterances.
    pub fn train(utterances: &[Utterance]) -> Self {
        let mut sums = vec![vec![0.0f32; FRAME_DIM]; NUM_PHONEMES];
        let mut counts = [0f32; NUM_PHONEMES];
        for utt in utterances {
            for (frame, &p) in utt.frames.iter().zip(utt.phonemes.iter()) {
                let p = p as usize;
                for (s, &f) in sums[p].iter_mut().zip(frame.iter()) {
                    *s += f;
                }
                counts[p] += 1.0;
            }
        }
        for (sum, &c) in sums.iter_mut().zip(counts.iter()) {
            if c > 0.0 {
                for v in sum.iter_mut() {
                    *v /= c;
                }
            }
        }
        DialectModel { means: sums }
    }

    /// Transcribe an utterance: nearest phoneme mean per frame.
    pub fn transcribe(&self, frames: &[Vec<f32>]) -> Vec<Label> {
        frames
            .iter()
            .map(|f| {
                let mut best = 0u32;
                let mut best_d = f32::INFINITY;
                for (p, mean) in self.means.iter().enumerate() {
                    let d = crate::linalg::sq_dist(mean, f);
                    if d < best_d {
                        best_d = d;
                        best = p as u32;
                    }
                }
                best
            })
            .collect()
    }

    /// Phoneme error rate of this model on an utterance.
    pub fn error_rate(&self, utt: &Utterance) -> f64 {
        sequence_error_rate(&utt.phonemes, &self.transcribe(&utt.frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let c1 = SpeechCorpus::default_corpus(3);
        let c2 = SpeechCorpus::default_corpus(3);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let u1 = c1.utterance(10, 20, &mut r1);
        let u2 = c2.utterance(10, 20, &mut r2);
        assert_eq!(u1.frames, u2.frames);
        assert_eq!(u1.phonemes, u2.phonemes);
    }

    #[test]
    fn speakers_cover_all_dialects() {
        let c = SpeechCorpus::default_corpus(3);
        let mut seen = [false; NUM_DIALECTS];
        for s in 0..NUM_SPEAKERS as u32 {
            seen[c.dialect_of(s) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn flatten_roundtrip() {
        let c = SpeechCorpus::default_corpus(3);
        let mut rng = StdRng::seed_from_u64(1);
        let u = c.utterance(5, 7, &mut rng);
        let flat = u.flatten();
        assert_eq!(flat.len(), 7 * FRAME_DIM);
        assert_eq!(Utterance::unflatten(&flat), u.frames);
    }

    #[test]
    fn dialect_model_beats_wrong_dialect_model() {
        let c = SpeechCorpus::default_corpus(17);
        let train0 = c.training_utterances(Some(0), 60, 20, 100);
        let train1 = c.training_utterances(Some(1), 60, 20, 101);
        let m0 = DialectModel::train(&train0);
        let m1 = DialectModel::train(&train1);

        // Evaluate both models on fresh dialect-0 utterances.
        let mut rng = StdRng::seed_from_u64(7);
        let speakers: Vec<u32> = (0..NUM_SPEAKERS as u32)
            .filter(|&s| c.dialect_of(s) == 0)
            .take(20)
            .collect();
        let (mut e0, mut e1) = (0.0, 0.0);
        let mut n = 0.0;
        for &s in &speakers {
            let utt = c.utterance(s, 30, &mut rng);
            e0 += m0.error_rate(&utt);
            e1 += m1.error_rate(&utt);
            n += 1.0;
        }
        assert!(
            e0 / n < e1 / n,
            "own-dialect model must win: {} vs {}",
            e0 / n,
            e1 / n
        );
    }

    #[test]
    fn global_model_sits_between() {
        // Figure 10's premise: dialect-specific < global < wrong-dialect.
        let c = SpeechCorpus::default_corpus(23);
        let own = DialectModel::train(&c.training_utterances(Some(2), 60, 20, 1));
        let global = DialectModel::train(&c.training_utterances(None, 120, 20, 2));
        let wrong = DialectModel::train(&c.training_utterances(Some(5), 60, 20, 3));

        let mut rng = StdRng::seed_from_u64(9);
        let speakers: Vec<u32> = (0..NUM_SPEAKERS as u32)
            .filter(|&s| c.dialect_of(s) == 2)
            .take(20)
            .collect();
        let (mut eo, mut eg, mut ew) = (0.0, 0.0, 0.0);
        for &s in &speakers {
            let utt = c.utterance(s, 30, &mut rng);
            eo += own.error_rate(&utt);
            eg += global.error_rate(&utt);
            ew += wrong.error_rate(&utt);
        }
        assert!(eo < eg, "own {eo} < global {eg}");
        assert!(eg < ew, "global {eg} < wrong {ew}");
    }

    #[test]
    fn transcription_length_matches_frames() {
        let c = SpeechCorpus::default_corpus(3);
        let m = DialectModel::train(&c.training_utterances(Some(0), 10, 10, 4));
        let mut rng = StdRng::seed_from_u64(2);
        let u = c.utterance(0, 25, &mut rng);
        assert_eq!(m.transcribe(&u.frames).len(), 25);
    }
}
