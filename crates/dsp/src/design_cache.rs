//! Process-wide cache of designed filters.
//!
//! Filter design (windowed-sinc tap synthesis, Butterworth pole placement)
//! is pure: the coefficients are a function of nothing but the design
//! parameters. The pipeline, the Pan-Tompkins detector and both signal
//! conditioners historically re-ran the design every time they were
//! constructed — once per session in a study that runs hundreds of
//! sessions. This module memoises designs behind [`std::sync::Arc`] so
//! every consumer of the same `(kind, order, cutoffs, fs, window)` key
//! shares one immutable coefficient set, across threads.
//!
//! Keys encode cut-off and sample-rate floats via [`f64::to_bits`]:
//! design parameters are written as literals or derived deterministically
//! from configuration, so bit-exact equality is the correct notion of
//! "same design" (no NaN keys occur — designers reject non-finite
//! frequencies).
//!
//! The cache also holds what is derived from a design alone: the
//! zero-phase backward-priming tables (`zero_phase_priming`), keyed by
//! the coefficient bits plus the settle and reflection lengths, so every
//! streaming session of one configuration shares one table.
//!
//! Cached entries are never evicted. The universe of designs in this
//! workspace is a handful of filters and their priming tables; the cache
//! stays a few tens of kilobytes.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::fir::Fir;
use crate::iir::Butterworth;
use crate::streaming::BackwardPriming;
use crate::window::Window;
use crate::DspError;

/// Cache key: filter family plus the full design-parameter tuple, with
/// floats carried as raw bits so the key is `Eq + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    FirLowpass {
        order: usize,
        fc: u64,
        fs: u64,
        window: WindowKey,
    },
    FirHighpass {
        order: usize,
        fc: u64,
        fs: u64,
        window: WindowKey,
    },
    FirBandpass {
        order: usize,
        f1: u64,
        f2: u64,
        fs: u64,
        window: WindowKey,
    },
    ButterLowpass {
        order: usize,
        fc: u64,
        fs: u64,
    },
    ButterHighpass {
        order: usize,
        fc: u64,
        fs: u64,
    },
    ButterBandpass {
        order: usize,
        f1: u64,
        f2: u64,
        fs: u64,
    },
    /// `[b0, b1, b2, a1, a2]` bits per section of the primed cascade.
    ZeroPhasePriming {
        sections: Vec<[u64; 5]>,
        settle: usize,
        ext: usize,
    },
}

/// Hashable image of [`Window`] (the Kaiser β float becomes raw bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WindowKey {
    Rectangular,
    Hamming,
    Hann,
    Blackman,
    Kaiser { beta: u64 },
}

impl From<Window> for WindowKey {
    fn from(w: Window) -> Self {
        match w {
            Window::Rectangular => Self::Rectangular,
            Window::Hamming => Self::Hamming,
            Window::Hann => Self::Hann,
            Window::Blackman => Self::Blackman,
            Window::Kaiser { beta } => Self::Kaiser {
                beta: beta.to_bits(),
            },
        }
    }
}

/// Cached value: a `Fir`, a `Butterworth` or a `BackwardPriming`; the
/// key kind fixes which, and [`get`] downcasts to it.
type Entry = Arc<dyn Any + Send + Sync>;

fn cache() -> &'static Mutex<HashMap<Key, Entry>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Entry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registry counter of cache hits (`dsp.design_cache.hits`).
fn hits() -> &'static cardiotouch_obs::Counter {
    static C: OnceLock<cardiotouch_obs::Counter> = OnceLock::new();
    C.get_or_init(|| cardiotouch_obs::counter("dsp.design_cache.hits"))
}

/// Registry counter of cache misses (`dsp.design_cache.misses`).
fn misses() -> &'static cardiotouch_obs::Counter {
    static C: OnceLock<cardiotouch_obs::Counter> = OnceLock::new();
    C.get_or_init(|| cardiotouch_obs::counter("dsp.design_cache.misses"))
}

/// Registry gauge of resident entries (`dsp.design_cache.entries`).
fn entries_gauge() -> &'static cardiotouch_obs::Gauge {
    static G: OnceLock<cardiotouch_obs::Gauge> = OnceLock::new();
    G.get_or_init(|| cardiotouch_obs::gauge("dsp.design_cache.entries"))
}

/// Looks up `key`, designing (and inserting) on first use. The design
/// runs outside the lock so a slow design never blocks other lookups.
fn get<T: Any + Send + Sync>(
    key: Key,
    design: impl FnOnce() -> Result<T, DspError>,
) -> Result<Arc<T>, DspError> {
    let typed = |entry: &Entry| {
        Arc::clone(entry)
            .downcast::<T>()
            .expect("each key kind maps to one value type")
    };
    if let Some(entry) = cache().lock().expect("design cache poisoned").get(&key) {
        hits().inc();
        return Ok(typed(entry));
    }
    misses().inc();
    let designed: Entry = Arc::new(design()?);
    let mut map = cache().lock().expect("design cache poisoned");
    // A racing thread may have inserted the same (deterministic) design;
    // keep the first insertion so all holders share one allocation.
    let out = typed(map.entry(key).or_insert(designed));
    entries_gauge().set(map.len() as i64);
    Ok(out)
}

/// Cached [`Fir::lowpass`].
///
/// # Errors
///
/// Same conditions as [`Fir::lowpass`].
pub fn fir_lowpass(order: usize, fc: f64, fs: f64, window: Window) -> Result<Arc<Fir>, DspError> {
    let key = Key::FirLowpass {
        order,
        fc: fc.to_bits(),
        fs: fs.to_bits(),
        window: window.into(),
    };
    get(key, || Fir::lowpass(order, fc, fs, window))
}

/// Cached [`Fir::highpass`].
///
/// # Errors
///
/// Same conditions as [`Fir::highpass`].
pub fn fir_highpass(order: usize, fc: f64, fs: f64, window: Window) -> Result<Arc<Fir>, DspError> {
    let key = Key::FirHighpass {
        order,
        fc: fc.to_bits(),
        fs: fs.to_bits(),
        window: window.into(),
    };
    get(key, || Fir::highpass(order, fc, fs, window))
}

/// Cached [`Fir::bandpass`] — the paper's ECG conditioning filter class.
///
/// # Errors
///
/// Same conditions as [`Fir::bandpass`].
pub fn fir_bandpass(
    order: usize,
    f1: f64,
    f2: f64,
    fs: f64,
    window: Window,
) -> Result<Arc<Fir>, DspError> {
    let key = Key::FirBandpass {
        order,
        f1: f1.to_bits(),
        f2: f2.to_bits(),
        fs: fs.to_bits(),
        window: window.into(),
    };
    get(key, || Fir::bandpass(order, f1, f2, fs, window))
}

/// Cached [`Butterworth::lowpass`] — the paper's ICG conditioning filter
/// class.
///
/// # Errors
///
/// Same conditions as [`Butterworth::lowpass`].
pub fn butterworth_lowpass(order: usize, fc: f64, fs: f64) -> Result<Arc<Butterworth>, DspError> {
    let key = Key::ButterLowpass {
        order,
        fc: fc.to_bits(),
        fs: fs.to_bits(),
    };
    get(key, || Butterworth::lowpass(order, fc, fs))
}

/// Cached [`Butterworth::highpass`].
///
/// # Errors
///
/// Same conditions as [`Butterworth::highpass`].
pub fn butterworth_highpass(order: usize, fc: f64, fs: f64) -> Result<Arc<Butterworth>, DspError> {
    let key = Key::ButterHighpass {
        order,
        fc: fc.to_bits(),
        fs: fs.to_bits(),
    };
    get(key, || Butterworth::highpass(order, fc, fs))
}

/// Cached [`Butterworth::bandpass`] — used by the Pan-Tompkins QRS
/// front-end.
///
/// # Errors
///
/// Same conditions as [`Butterworth::bandpass`].
pub fn butterworth_bandpass(
    order: usize,
    f1: f64,
    f2: f64,
    fs: f64,
) -> Result<Arc<Butterworth>, DspError> {
    let key = Key::ButterBandpass {
        order,
        f1: f1.to_bits(),
        f2: f2.to_bits(),
        fs: fs.to_bits(),
    };
    get(key, || Butterworth::bandpass(order, f1, f2, fs))
}

/// Cached [`BackwardPriming`] for a zero-phase stage over `filter` with
/// the given settle and reflection lengths. The key is the coefficient
/// bits, not the `Arc`, so any two equal designs share one table.
pub(crate) fn zero_phase_priming(
    filter: &Arc<Butterworth>,
    settle: usize,
    ext: usize,
) -> Arc<BackwardPriming> {
    let key = Key::ZeroPhasePriming {
        sections: filter
            .sections()
            .iter()
            .map(|c| [c.b0, c.b1, c.b2, c.a1, c.a2].map(f64::to_bits))
            .collect(),
        settle,
        ext,
    };
    get(key, || Ok(BackwardPriming::new(filter, settle, ext)))
        .expect("building a priming table cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_parameters_share_one_design() {
        let a = fir_bandpass(32, 0.05, 40.0, 250.0, Window::Hamming).unwrap();
        let b = fir_bandpass(32, 0.05, 40.0, 250.0, Window::Hamming).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical keys must share the Arc");
    }

    #[test]
    fn cached_design_equals_direct_design() {
        let cached = butterworth_lowpass(4, 20.0, 250.0).unwrap();
        let direct = Butterworth::lowpass(4, 20.0, 250.0).unwrap();
        assert_eq!(*cached, direct);

        let cached = fir_bandpass(32, 0.05, 40.0, 250.0, Window::Hamming).unwrap();
        let direct = Fir::bandpass(32, 0.05, 40.0, 250.0, Window::Hamming).unwrap();
        assert_eq!(*cached, direct);
    }

    #[test]
    fn different_parameters_get_distinct_entries() {
        let a = butterworth_lowpass(4, 20.0, 250.0).unwrap();
        let b = butterworth_lowpass(2, 20.0, 250.0).unwrap();
        let c = butterworth_lowpass(4, 25.0, 250.0).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(*a, *b);
    }

    #[test]
    fn kaiser_beta_participates_in_the_key() {
        let a = fir_lowpass(32, 20.0, 250.0, Window::Kaiser { beta: 5.0 }).unwrap();
        let b = fir_lowpass(32, 20.0, 250.0, Window::Kaiser { beta: 8.0 }).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(*a, *b);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        // Counters are process-global registry handles and other tests
        // run concurrently, so assert on deltas with >: the first
        // lookup of a fresh key must add a miss, the second a hit.
        let (hits_before, misses_before) = (hits().get(), misses().get());
        let _a = fir_lowpass(32, 33.0, 251.0, Window::Hann).unwrap();
        assert!(misses().get() > misses_before);
        let _b = fir_lowpass(32, 33.0, 251.0, Window::Hann).unwrap();
        assert!(hits().get() > hits_before);
        assert!(entries_gauge().get() >= 1);
    }

    #[test]
    fn priming_tables_are_shared_per_design_and_lengths() {
        let lp = butterworth_lowpass(4, 20.0, 250.0).unwrap();
        let direct = Arc::new(Butterworth::lowpass(4, 20.0, 250.0).unwrap());
        let a = zero_phase_priming(&lp, 125, 90);
        let b = zero_phase_priming(&direct, 125, 90);
        assert!(Arc::ptr_eq(&a, &b), "equal coefficients must share a table");
        assert!(!Arc::ptr_eq(&a, &zero_phase_priming(&lp, 125, 91)));
        let hp = butterworth_highpass(2, 0.4, 250.0).unwrap();
        assert!(!Arc::ptr_eq(&a, &zero_phase_priming(&hp, 125, 90)));
    }

    #[test]
    fn invalid_designs_still_error_and_are_not_cached() {
        assert!(butterworth_lowpass(0, 20.0, 250.0).is_err());
        assert!(fir_bandpass(32, 40.0, 0.05, 250.0, Window::Hamming).is_err());
        // A subsequent valid request must not be affected.
        assert!(butterworth_lowpass(4, 20.0, 250.0).is_ok());
    }
}
