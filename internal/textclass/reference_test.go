package textclass_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pphcr/internal/asr"
	"pphcr/internal/synth"
	"pphcr/internal/textclass"
)

// refNaiveBayes is the classifier as it was before Train kept a table
// of log-likelihoods: per-category word counts in maps, and a
// math.Log per (category, token) at every Scores. It is the reference
// the table is held to, bit for bit.
type refNaiveBayes struct {
	categories []string
	logPrior   map[string]float64
	wordCount  map[string]map[string]int
	totalWords map[string]int
	vocab      map[string]bool
}

func (nb *refNaiveBayes) Train(docs []textclass.Document) error {
	if len(docs) == 0 {
		return textclass.ErrNoTrainingData
	}
	nb.logPrior = make(map[string]float64)
	nb.wordCount = make(map[string]map[string]int)
	nb.totalWords = make(map[string]int)
	nb.vocab = make(map[string]bool)
	catDocs := make(map[string]int)
	for _, d := range docs {
		catDocs[d.Category]++
		wc := nb.wordCount[d.Category]
		if wc == nil {
			wc = make(map[string]int)
			nb.wordCount[d.Category] = wc
		}
		for _, w := range d.Tokens {
			wc[w]++
			nb.totalWords[d.Category]++
			nb.vocab[w] = true
		}
	}
	nb.categories = nb.categories[:0]
	for c := range catDocs {
		nb.categories = append(nb.categories, c)
		nb.logPrior[c] = math.Log(float64(catDocs[c]) / float64(len(docs)))
	}
	sort.Strings(nb.categories)
	return nil
}

func (nb *refNaiveBayes) Scores(tokens []string) []textclass.Score {
	if len(nb.categories) == 0 {
		return nil
	}
	v := float64(len(nb.vocab))
	out := make([]textclass.Score, 0, len(nb.categories))
	for _, c := range nb.categories {
		lp := nb.logPrior[c]
		wc := nb.wordCount[c]
		denom := float64(nb.totalWords[c]) + v
		for _, w := range tokens {
			if !nb.vocab[w] {
				continue
			}
			lp += math.Log((float64(wc[w]) + 1) / denom)
		}
		out = append(out, textclass.Score{Category: c, LogProb: lp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LogProb != out[j].LogProb {
			return out[i].LogProb > out[j].LogProb
		}
		return out[i].Category < out[j].Category
	})
	return out
}

func (nb *refNaiveBayes) Classify(tokens []string) (string, float64, bool) {
	scores := nb.Scores(tokens)
	if len(scores) == 0 {
		return "", 0, false
	}
	max := scores[0].LogProb
	var total float64
	for _, s := range scores {
		total += math.Exp(s.LogProb - max)
	}
	return scores[0].Category, 1 / total, true
}

func (nb *refNaiveBayes) Distribution(tokens []string) map[string]float64 {
	scores := nb.Scores(tokens)
	if len(scores) == 0 {
		return nil
	}
	max := scores[0].LogProb
	var total float64
	exps := make([]float64, len(scores))
	for i, s := range scores {
		exps[i] = math.Exp(s.LogProb - max)
		total += exps[i]
	}
	out := make(map[string]float64, len(scores))
	for i, s := range scores {
		out[s.Category] = exps[i] / total
	}
	return out
}

// benchWorld is the benchmark's world: its training corpus and 90
// podcasts.
func benchWorld(tb testing.TB) *synth.World {
	tb.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 1, Days: 3, Users: 64, Stations: 4, PodcastsPerDay: 30, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// transcripts are the token lists the ingest pipeline classifies for the
// world's podcasts: speech through the recognizer, then Tokenize.
func transcripts(tb testing.TB, w *synth.World) [][]string {
	tb.Helper()
	rec, err := asr.New(0.15, asr.DefaultErrorProfile(), w.FlatVocab, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]string
	for _, raw := range w.Corpus {
		out = append(out, textclass.Tokenize(rec.TranscribeText(raw.Speech)))
	}
	return out
}

// sameAsReference fails unless Scores, Classify and Distribution of nb
// and ref agree to the bit on tokens.
func sameAsReference(t *testing.T, nb *textclass.NaiveBayes, ref *refNaiveBayes, tokens []string) {
	t.Helper()
	got, want := nb.Scores(tokens), ref.Scores(tokens)
	if len(got) != len(want) {
		t.Fatalf("%v: %d scores, reference %d", tokens, len(got), len(want))
	}
	for i := range got {
		if got[i].Category != want[i].Category || math.Float64bits(got[i].LogProb) != math.Float64bits(want[i].LogProb) {
			t.Fatalf("%v: score %d is %+v, reference %+v", tokens, i, got[i], want[i])
		}
	}
	c, conf, ok := nb.Classify(tokens)
	rc, rconf, rok := ref.Classify(tokens)
	if c != rc || math.Float64bits(conf) != math.Float64bits(rconf) || ok != rok {
		t.Fatalf("%v: Classify = %q %v %v, reference %q %v %v", tokens, c, conf, ok, rc, rconf, rok)
	}
	gd, wd := nb.Distribution(tokens), ref.Distribution(tokens)
	if len(gd) != len(wd) {
		t.Fatalf("%v: Distribution has %d categories, reference %d", tokens, len(gd), len(wd))
	}
	for cat, p := range wd {
		if q, ok := gd[cat]; !ok || math.Float64bits(p) != math.Float64bits(q) {
			t.Fatalf("%v: Distribution[%s] = %v, reference %v", tokens, cat, q, p)
		}
	}
}

// TestScoresMatchReference holds the table-driven classifier to the
// map-based reference on the bench world's corpus (its podcasts'
// transcripts and its training documents), on seeded random documents
// with unseen and repeated words, on an empty token list, and after a
// retrain on another corpus.
func TestScoresMatchReference(t *testing.T) {
	w := benchWorld(t)
	var nb textclass.NaiveBayes
	var ref refNaiveBayes
	if err := nb.Train(w.Training); err != nil {
		t.Fatal(err)
	}
	if err := ref.Train(w.Training); err != nil {
		t.Fatal(err)
	}
	for _, tokens := range transcripts(t, w) {
		sameAsReference(t, &nb, &ref, tokens)
	}
	for _, d := range w.Training {
		sameAsReference(t, &nb, &ref, d.Tokens)
	}
	sameAsReference(t, &nb, &ref, nil)
	sameAsReference(t, &nb, &ref, []string{})

	rng := rand.New(rand.NewSource(7))
	random := func(vocab []string) []string {
		tokens := make([]string, rng.Intn(200))
		for i := range tokens {
			switch r := rng.Float64(); {
			case r < 0.2:
				tokens[i] = fmt.Sprintf("unseen%d", rng.Intn(50))
			case r < 0.4 && i > 0:
				tokens[i] = tokens[rng.Intn(i)] // a repeat
			default:
				tokens[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		return tokens
	}
	for range 500 {
		sameAsReference(t, &nb, &ref, random(w.FlatVocab))
	}

	// Retrain both on a smaller, disjoint corpus: no state of the first
	// training may survive.
	other := otherCorpus(t)
	if err := nb.Train(other); err != nil {
		t.Fatal(err)
	}
	if err := ref.Train(other); err != nil {
		t.Fatal(err)
	}
	var otherVocab []string
	for _, d := range other {
		otherVocab = append(otherVocab, d.Tokens...)
	}
	for range 200 {
		sameAsReference(t, &nb, &ref, random(otherVocab))
		sameAsReference(t, &nb, &ref, random(w.FlatVocab))
	}
}

// otherCorpus is a seeded corpus of five categories whose words the
// bench world's corpus does not use.
func otherCorpus(t *testing.T) []textclass.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var docs []textclass.Document
	for c := range 5 {
		for range 6 {
			tokens := make([]string, 20+rng.Intn(40))
			for i := range tokens {
				tokens[i] = fmt.Sprintf("c%dw%d", c, rng.Intn(30))
				if rng.Float64() < 0.3 {
					tokens[i] = fmt.Sprintf("shared%d", rng.Intn(10))
				}
			}
			docs = append(docs, textclass.Document{Tokens: tokens, Category: fmt.Sprintf("other%d", c)})
		}
	}
	return docs
}

// BenchmarkClassify classifies the bench world's podcast transcripts as
// the ingest pipeline does (Distribution), one podcast an op.
func BenchmarkClassify(b *testing.B) {
	w := benchWorld(b)
	var nb textclass.NaiveBayes
	if err := nb.Train(w.Training); err != nil {
		b.Fatal(err)
	}
	docs := transcripts(b, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = nb.Distribution(docs[i%len(docs)])
	}
}

var sink map[string]float64
