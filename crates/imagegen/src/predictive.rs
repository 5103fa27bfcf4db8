//! Predictive (pre-generation) routing — the paper's §5 open question.
//!
//! "An alternative approach is to use the query itself to make routing
//! decisions before executing any diffusion models. However, predicting
//! image generation quality solely from text inputs is challenging ... it
//! remains an open question whether a query-based routing strategy would
//! yield better performance."
//!
//! This module implements that alternative so the question can be measured:
//! a classifier is trained on (noisy) prompt embeddings to predict whether
//! the lightweight model will render the prompt well; queries predicted to
//! render badly skip the light stage entirely and go straight to the
//! heavyweight model. Compared to the post-hoc discriminator cascade, the
//! predictive router saves the light-stage latency on deferred queries but
//! routes on strictly less information (it never sees the actual image).

use diffserve_linalg::Mat;
use diffserve_metrics::fid_score;
use diffserve_nn::{Adam, Mlp, TrainConfig};
use diffserve_simkit::rng::{derive_seed, seeded_rng, Normal, Sampler};

use crate::model::DiffusionModel;
use crate::prompt::{Prompt, PromptDataset};

/// Dimensionality of the synthetic prompt (text) embedding.
pub const TEXT_DIM: usize = 8;

/// Deterministic synthetic text embedding of a prompt: two coordinates
/// carry noisy views of the prompt's difficulty and style, the rest is
/// prompt-specific structure no router can exploit. The noise level is the
/// knob that makes text-only quality prediction "challenging" (§5).
pub fn text_embedding(prompt: &Prompt, observation_noise: f64) -> Vec<f64> {
    let mut rng = seeded_rng(derive_seed(prompt.seed, 0x7E87));
    let normal = Normal::standard();
    let mut e = vec![0.0; TEXT_DIM];
    e[0] = prompt.difficulty + observation_noise * normal.draw(&mut rng);
    e[1] = prompt.style_bias + observation_noise * normal.draw(&mut rng);
    for v in e.iter_mut().skip(2) {
        *v = normal.draw(&mut rng);
    }
    e
}

/// Configuration for training a [`PredictiveRouter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveConfig {
    /// Std of the observation noise on the embedding's informative
    /// coordinates.
    pub observation_noise: f64,
    /// Number of training prompts.
    pub train_prompts: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            observation_noise: 0.35,
            train_prompts: 1000,
            epochs: 25,
            seed: 0x9817,
        }
    }
}

/// A text-only quality predictor routing queries before any generation.
#[derive(Debug, Clone)]
pub struct PredictiveRouter {
    classifier: Mlp,
    config: PredictiveConfig,
    /// Sorted training-set scores for calibration (same equalization scheme
    /// as the discriminator).
    calibration: Vec<f64>,
}

impl PredictiveRouter {
    /// Trains the router: label = "the light model renders this prompt at
    /// or above its median quality".
    ///
    /// # Panics
    ///
    /// Panics if the dataset is smaller than the training-prompt request.
    pub fn train(
        dataset: &PromptDataset,
        light: &DiffusionModel,
        config: PredictiveConfig,
    ) -> Self {
        assert!(
            config.train_prompts <= dataset.len(),
            "train_prompts exceeds dataset size"
        );
        let prompts = &dataset.prompts()[..config.train_prompts];
        let mut qualities: Vec<f64> = prompts.iter().map(|p| light.generate(p).quality).collect();
        let mut sorted = qualities.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite quality"));
        let median = sorted[sorted.len() / 2];

        let rows: Vec<Vec<f64>> = prompts
            .iter()
            .map(|p| text_embedding(p, config.observation_noise))
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Mat::from_rows(&refs);
        let labels: Vec<usize> = qualities
            .drain(..)
            .map(|q| usize::from(q >= median))
            .collect();

        let mut rng = seeded_rng(derive_seed(config.seed, 0x11A8));
        let mut classifier = Mlp::new(&[TEXT_DIM, 16, 2], &mut rng);
        let mut opt = Adam::new(0.01);
        classifier.fit(
            &x,
            &labels,
            &mut opt,
            &TrainConfig {
                epochs: config.epochs,
                batch_size: 64,
                shuffle: true,
            },
            &mut rng,
        );

        let mut router = PredictiveRouter {
            classifier,
            config,
            calibration: Vec::new(),
        };
        let mut raw: Vec<f64> = prompts.iter().map(|p| router.raw_score(p)).collect();
        raw.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        router.calibration = raw;
        router
    }

    fn raw_score(&self, prompt: &Prompt) -> f64 {
        let e = text_embedding(prompt, self.config.observation_noise);
        self.classifier.predict_proba_row(&e, 1)
    }

    /// Calibrated confidence in `[0, 1]` that the light model suffices for
    /// this prompt — comparable to the discriminator's threshold scale.
    pub fn confidence(&self, prompt: &Prompt) -> f64 {
        let raw = self.raw_score(prompt);
        let n = self.calibration.len();
        if n == 0 {
            return raw;
        }
        let idx = self.calibration.partition_point(|&v| v < raw);
        idx as f64 / n as f64
    }
}

/// Knobs for the [`OnlinePredictiveRouter`] used by the serving engines in
/// ladder mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineRouterConfig {
    /// Std of the observation noise on the embedding's informative
    /// coordinates (same knob as [`PredictiveConfig::observation_noise`]).
    pub observation_noise: f64,
    /// SGD step size for the per-boundary logistic models.
    pub learning_rate: f64,
    /// Observations a boundary needs before its predictions are trusted;
    /// cold boundaries never skip a tier.
    pub min_observations: u64,
    /// Predicted escalation probability at or above which a query skips
    /// past the boundary's cheap tier.
    pub margin: f64,
}

impl Default for OnlineRouterConfig {
    fn default() -> Self {
        OnlineRouterConfig {
            observation_noise: 0.35,
            learning_rate: 0.05,
            min_observations: 64,
            margin: 0.6,
        }
    }
}

/// A pre-execution router for N-tier ladders, trained online from observed
/// deferral outcomes.
///
/// One logistic model per ladder boundary predicts, from the text embedding
/// alone, whether a query served at tier `k` would be escalated by the
/// boundary-`k` discriminator. Every discriminator verdict (kept or
/// escalated) is a labeled example, so the router needs no offline training
/// pass and tracks difficulty shifts. At admission, a query's entry tier is
/// the deepest tier it is predicted to escalate through: queries
/// predicted-hard at every boundary skip straight to the terminal tier and
/// never pay cheap-tier compute.
#[derive(Debug, Clone)]
pub struct OnlinePredictiveRouter {
    /// Per boundary: `TEXT_DIM` weights plus a trailing bias term.
    weights: Vec<Vec<f64>>,
    counts: Vec<u64>,
    config: OnlineRouterConfig,
}

impl OnlinePredictiveRouter {
    /// Creates a cold router for a ladder with `boundaries` = N-1
    /// escalation boundaries.
    pub fn new(boundaries: usize, config: OnlineRouterConfig) -> Self {
        OnlinePredictiveRouter {
            weights: vec![vec![0.0; TEXT_DIM + 1]; boundaries],
            counts: vec![0; boundaries],
            config,
        }
    }

    /// Number of boundaries this router predicts over.
    pub fn boundaries(&self) -> usize {
        self.weights.len()
    }

    /// Labeled outcomes observed at `boundary` so far.
    pub fn observations(&self, boundary: usize) -> u64 {
        self.counts[boundary]
    }

    fn logit(&self, boundary: usize, embedding: &[f64]) -> f64 {
        let w = &self.weights[boundary];
        let mut z = w[TEXT_DIM];
        for (wi, xi) in w[..TEXT_DIM].iter().zip(embedding) {
            z += wi * xi;
        }
        z
    }

    /// Trains on one observed deferral outcome: the boundary-`boundary`
    /// discriminator either kept the query (`escalated = false`) or sent it
    /// deeper (`escalated = true`).
    pub fn observe(&mut self, boundary: usize, prompt: &Prompt, escalated: bool) {
        let e = text_embedding(prompt, self.config.observation_noise);
        let p = sigmoid(self.logit(boundary, &e));
        let err = f64::from(escalated) - p;
        let lr = self.config.learning_rate;
        let w = &mut self.weights[boundary];
        for (wi, xi) in w[..TEXT_DIM].iter_mut().zip(&e) {
            *wi += lr * err * xi;
        }
        w[TEXT_DIM] += lr * err;
        self.counts[boundary] += 1;
    }

    /// Predicted probability that this prompt escalates through `boundary`,
    /// or `None` while the boundary is still cold.
    pub fn escalation_prob(&self, boundary: usize, prompt: &Prompt) -> Option<f64> {
        if self.counts[boundary] < self.config.min_observations {
            return None;
        }
        let e = text_embedding(prompt, self.config.observation_noise);
        Some(sigmoid(self.logit(boundary, &e)))
    }

    /// The tier this prompt should enter the ladder at: the deepest tier
    /// whose every preceding boundary predicts escalation with probability
    /// at or above the configured margin. Cold boundaries stop the walk, so
    /// an untrained router always answers tier 0 (always-cheapest-first).
    pub fn entry_tier(&self, prompt: &Prompt) -> usize {
        let mut tier = 0;
        for boundary in 0..self.boundaries() {
            match self.escalation_prob(boundary, prompt) {
                Some(p) if p >= self.config.margin => tier = boundary + 1,
                _ => break,
            }
        }
        tier
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Outcome of evaluating predictive routing over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictiveEval {
    /// FID of the blended responses.
    pub fid: f64,
    /// Fraction routed directly to the heavy model.
    pub heavy_fraction: f64,
    /// Mean per-query latency (deferred queries pay only the heavy stage —
    /// the predictive router's structural advantage).
    pub mean_latency: f64,
}

/// Evaluates predictive routing at a confidence threshold: prompts whose
/// predicted light-suitability falls below `threshold` go straight to the
/// heavy model.
pub fn evaluate_predictive(
    dataset: &PromptDataset,
    light: &DiffusionModel,
    heavy: &DiffusionModel,
    router: &PredictiveRouter,
    threshold: f64,
) -> PredictiveEval {
    let light_lat = light.latency().exec_latency(1).as_secs_f64();
    let heavy_lat = heavy.latency().exec_latency(1).as_secs_f64();
    let mut features: Vec<Vec<f64>> = Vec::with_capacity(dataset.len());
    let mut heavies = 0usize;
    let mut latency = 0.0;
    for p in dataset.prompts() {
        if router.confidence(p) >= threshold {
            features.push(light.generate(p).features);
            latency += light_lat;
        } else {
            features.push(heavy.generate(p).features);
            latency += heavy_lat;
            heavies += 1;
        }
    }
    let refs: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();
    let fid = fid_score(&Mat::from_rows(&refs), dataset.real_features(), 1e-6)
        .expect("well-conditioned features");
    PredictiveEval {
        fid,
        heavy_fraction: heavies as f64 / dataset.len() as f64,
        mean_latency: latency / dataset.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{evaluate_cascade, RoutingRule};
    use crate::discriminator::{Discriminator, DiscriminatorConfig};
    use crate::features::FeatureSpec;
    use crate::prompt::DatasetKind;
    use crate::zoo::{sd_turbo, sd_v15};
    use std::sync::OnceLock;

    struct Fx {
        dataset: PromptDataset,
        light: DiffusionModel,
        heavy: DiffusionModel,
        router: PredictiveRouter,
        disc: Discriminator,
    }

    fn fx() -> &'static Fx {
        static F: OnceLock<Fx> = OnceLock::new();
        F.get_or_init(|| {
            let spec = FeatureSpec::default();
            let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 1500, 61, spec);
            let light = sd_turbo(spec);
            let heavy = sd_v15(spec);
            let router = PredictiveRouter::train(
                &dataset,
                &light,
                PredictiveConfig {
                    train_prompts: 600,
                    epochs: 15,
                    ..Default::default()
                },
            );
            let disc = Discriminator::train(
                &dataset,
                &light,
                &heavy,
                DiscriminatorConfig {
                    train_prompts: 600,
                    epochs: 10,
                    ..Default::default()
                },
            );
            Fx {
                dataset,
                light,
                heavy,
                router,
                disc,
            }
        })
    }

    #[test]
    fn embedding_is_deterministic_and_informative() {
        let f = fx();
        let p = &f.dataset.prompts()[7];
        assert_eq!(text_embedding(p, 0.3), text_embedding(p, 0.3));
        // Zero-noise embedding carries difficulty exactly.
        assert!((text_embedding(p, 0.0)[0] - p.difficulty).abs() < 1e-12);
    }

    #[test]
    fn router_beats_random_routing() {
        let f = fx();
        let eval = evaluate_predictive(&f.dataset, &f.light, &f.heavy, &f.router, 0.5);
        let random = evaluate_cascade(
            &f.dataset,
            &f.light,
            &f.heavy,
            &RoutingRule::Random { seed: 3 },
            eval.heavy_fraction,
        );
        assert!(
            eval.fid < random.fid,
            "predictive routing {} should beat random {}",
            eval.fid,
            random.fid
        );
    }

    #[test]
    fn post_hoc_discriminator_beats_text_only_prediction_on_quality() {
        // The paper's hypothesis: the image-aware discriminator routes
        // better than any text-only predictor at matched deferral.
        let f = fx();
        let pred = evaluate_predictive(&f.dataset, &f.light, &f.heavy, &f.router, 0.5);
        let disc = evaluate_cascade(
            &f.dataset,
            &f.light,
            &f.heavy,
            &RoutingRule::Discriminator(&f.disc),
            pred.heavy_fraction,
        );
        assert!(
            disc.fid < pred.fid,
            "discriminator {} should beat predictive {}",
            disc.fid,
            pred.fid
        );
    }

    #[test]
    fn predictive_routing_is_cheaper_for_deferred_queries() {
        // Structural advantage: deferred queries skip the light stage, so
        // at the same deferral fraction the predictive router must be
        // cheaper than the cascade's structural cost (light + discriminator
        // on every query, heavy on the deferred share).
        let f = fx();
        let pred = evaluate_predictive(&f.dataset, &f.light, &f.heavy, &f.router, 0.5);
        let cascade_cost_at_same_fraction = f.light.latency().exec_latency(1).as_secs_f64()
            + f.disc.latency().as_secs_f64()
            + pred.heavy_fraction * f.heavy.latency().exec_latency(1).as_secs_f64();
        assert!(
            pred.mean_latency < cascade_cost_at_same_fraction,
            "predictive {} should be cheaper than the cascade's structural cost {}",
            pred.mean_latency,
            cascade_cost_at_same_fraction
        );
    }

    #[test]
    fn online_router_learns_escalation_outcomes() {
        let f = fx();
        let mut router = OnlinePredictiveRouter::new(
            1,
            OnlineRouterConfig {
                min_observations: 64,
                ..Default::default()
            },
        );
        let prompts = f.dataset.prompts();
        assert_eq!(
            router.entry_tier(&prompts[0]),
            0,
            "cold router stays at tier 0"
        );
        // Ground truth proxy: hard prompts escalate.
        for _pass in 0..4 {
            for p in &prompts[..600] {
                router.observe(0, p, p.difficulty > 0.5);
            }
        }
        let held_out = &prompts[600..];
        let mean_prob = |filter: &dyn Fn(&Prompt) -> bool| {
            let probs: Vec<f64> = held_out
                .iter()
                .filter(|p| filter(p))
                .map(|p| router.escalation_prob(0, p).expect("warmed up"))
                .collect();
            probs.iter().sum::<f64>() / probs.len() as f64
        };
        let hard = mean_prob(&|p: &Prompt| p.difficulty > 0.7);
        let easy = mean_prob(&|p: &Prompt| p.difficulty < 0.3);
        assert!(
            hard > easy + 0.2,
            "router should separate hard ({hard}) from easy ({easy}) prompts"
        );
        // Determinism: replaying the same observations yields the same model.
        let mut replay = OnlinePredictiveRouter::new(
            1,
            OnlineRouterConfig {
                min_observations: 64,
                ..Default::default()
            },
        );
        for _pass in 0..4 {
            for p in &prompts[..600] {
                replay.observe(0, p, p.difficulty > 0.5);
            }
        }
        assert_eq!(
            router.escalation_prob(0, &held_out[3]),
            replay.escalation_prob(0, &held_out[3])
        );
    }

    #[test]
    fn thresholds_span_all_light_to_all_heavy() {
        let f = fx();
        let all_light = evaluate_predictive(&f.dataset, &f.light, &f.heavy, &f.router, 0.0);
        assert_eq!(all_light.heavy_fraction, 0.0);
        let all_heavy = evaluate_predictive(&f.dataset, &f.light, &f.heavy, &f.router, 1.01);
        assert_eq!(all_heavy.heavy_fraction, 1.0);
    }
}
