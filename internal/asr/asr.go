// Package asr simulates the automatic speech recognition stage of the
// paper's pipeline (§1.2: "news programs ... are analyzed using an
// automatic speech recognizer trained with the Italian language").
//
// A trained Italian recognizer is not reproducible here, so the package
// implements the standard word-error channel used in ASR robustness
// studies: given the ground-truth transcript, it corrupts it with
// substitutions, deletions and insertions at a configurable word error
// rate (WER). Downstream code — the Bayesian classifier — sees token
// streams with exactly the error structure real ASR output would have,
// and experiments can sweep WER, which a fixed real recognizer would not
// allow.
package asr

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// ErrorProfile splits the word error rate into substitution, deletion and
// insertion fractions. The fractions must be non-negative and sum to 1.
type ErrorProfile struct {
	Substitution float64
	Deletion     float64
	Insertion    float64
}

// DefaultErrorProfile mirrors the error mix typical of broadcast-news
// recognizers: substitutions dominate.
func DefaultErrorProfile() ErrorProfile {
	return ErrorProfile{Substitution: 0.6, Deletion: 0.25, Insertion: 0.15}
}

// Recognizer is a simulated speech recognizer. Create it with New. It is
// safe for concurrent use: System.IngestPodcast transcribes outside every
// lock, so concurrent ingests share one Recognizer, and mu serializes
// their draws from rng.
type Recognizer struct {
	wer     float64
	profile ErrorProfile
	mu      sync.Mutex
	rng     *rand.Rand
	// confusable is the vocabulary substitutions and insertions draw
	// from; a real recognizer confuses words with in-vocabulary words.
	confusable []string
}

// New returns a recognizer with the given word error rate in [0,1). The
// vocabulary seeds the substitution/insertion pool; if empty, corrupted
// words are derived by mangling the original token.
func New(wer float64, profile ErrorProfile, vocabulary []string, seed int64) (*Recognizer, error) {
	if wer < 0 || wer >= 1 {
		return nil, fmt.Errorf("asr: WER %v out of [0,1)", wer)
	}
	sum := profile.Substitution + profile.Deletion + profile.Insertion
	if profile.Substitution < 0 || profile.Deletion < 0 || profile.Insertion < 0 ||
		sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("asr: error profile fractions must be non-negative and sum to 1, got %v", sum)
	}
	return &Recognizer{
		wer:        wer,
		profile:    profile,
		rng:        rand.New(rand.NewSource(seed)),
		confusable: vocabulary,
	}, nil
}

// Transcribe passes the ground-truth words through the error channel and
// returns the recognized word sequence.
func (r *Recognizer) Transcribe(truth []string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(truth))
	for _, w := range truth {
		if r.rng.Float64() >= r.wer {
			out = append(out, w)
			continue
		}
		p := r.rng.Float64()
		switch {
		case p < r.profile.Substitution:
			out = append(out, r.randomWord(w))
		case p < r.profile.Substitution+r.profile.Deletion:
			// deletion: emit nothing
		default:
			// insertion: keep the word and add a spurious one
			out = append(out, w, r.randomWord(w))
		}
	}
	return out
}

// TranscribeText is a convenience wrapper over whitespace-separated text.
func (r *Recognizer) TranscribeText(text string) string {
	return strings.Join(r.Transcribe(strings.Fields(text)), " ")
}

func (r *Recognizer) randomWord(original string) string {
	if len(r.confusable) > 0 {
		return r.confusable[r.rng.Intn(len(r.confusable))]
	}
	// No vocabulary: mangle the original (vowel swap), which keeps the
	// token out-of-vocabulary for the classifier, like a true miss.
	return original + "x"
}

// MeasureWER computes the word error rate of hypothesis against truth via
// Levenshtein alignment (the standard (S+D+I)/N metric).
func MeasureWER(truth, hypothesis []string) float64 {
	n, m := len(truth), len(hypothesis)
	if n == 0 {
		if m == 0 {
			return 0
		}
		return 1
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if truth[i-1] == hypothesis[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return float64(prev[m]) / float64(n)
}

func minInt(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
