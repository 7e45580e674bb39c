package textclass

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("La Juventus ha vinto il derby, 2-0 a Torino!")
	want := []string{"juventus", "vinto", "derby", "torino"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEdge(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
	if got := Tokenize("...!!!"); len(got) != 0 {
		t.Fatalf("punctuation only: %v", got)
	}
	// Single-rune fragments and stopwords removed; accents preserved.
	got := Tokenize("è più caffè")
	if len(got) != 1 || got[0] != "caffè" {
		t.Fatalf("got %v", got)
	}
}

func TestStopwordHelpers(t *testing.T) {
	if len(Stopwords()) < 30 {
		t.Fatal("stopword list too short")
	}
}

// corpus builds a tiny three-category training set with distinctive
// vocabulary plus shared filler.
func corpus() []Document {
	mk := func(cat string, words ...string) Document {
		tokens := append([]string{"oggi", "programma", "radio"}, words...)
		return Document{Tokens: tokens, Category: cat}
	}
	return []Document{
		mk("sport", "calcio", "juventus", "derby", "goal", "partita"),
		mk("sport", "calcio", "campionato", "goal", "allenatore"),
		mk("sport", "derby", "partita", "stadio", "tifosi"),
		mk("economics", "mercato", "borsa", "spread", "banca", "tassi"),
		mk("economics", "inflazione", "borsa", "banca", "euro"),
		mk("economics", "mercato", "tassi", "lavoro", "pil"),
		mk("food", "ricetta", "champagne", "prosecco", "cava", "vino"),
		mk("food", "cucina", "ricetta", "chef", "vino"),
		mk("food", "prosecco", "degustazione", "chef", "cucina"),
	}
}

func TestNaiveBayesClassify(t *testing.T) {
	var nb NaiveBayes
	if err := nb.Train(corpus()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tokens []string
		want   string
	}{
		{[]string{"goal", "partita", "calcio"}, "sport"},
		{[]string{"borsa", "spread"}, "economics"},
		{[]string{"prosecco", "champagne", "vino"}, "food"},
	}
	for _, c := range cases {
		got, conf, ok := nb.Classify(c.tokens)
		if !ok {
			t.Fatal("classify not ok")
		}
		if got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.tokens, got, c.want)
		}
		if conf <= 0 || conf > 1 {
			t.Errorf("confidence %v out of range", conf)
		}
	}
}

func TestNaiveBayesUntrained(t *testing.T) {
	var nb NaiveBayes
	if _, _, ok := nb.Classify([]string{"goal"}); ok {
		t.Fatal("untrained classifier returned ok")
	}
	if nb.Scores([]string{"goal"}) != nil {
		t.Fatal("untrained Scores should be nil")
	}
	if nb.Distribution([]string{"goal"}) != nil {
		t.Fatal("untrained Distribution should be nil")
	}
	if err := nb.Train(nil); err != ErrNoTrainingData {
		t.Fatalf("Train(nil) err = %v", err)
	}
}

func TestNaiveBayesCategoriesSorted(t *testing.T) {
	var nb NaiveBayes
	if err := nb.Train(corpus()); err != nil {
		t.Fatal(err)
	}
	cats := nb.categories
	if len(cats) != 3 {
		t.Fatalf("Categories = %v", cats)
	}
	for i := 1; i < len(cats); i++ {
		if cats[i-1] >= cats[i] {
			t.Fatalf("not sorted: %v", cats)
		}
	}
}

func TestNaiveBayesDistributionSumsToOne(t *testing.T) {
	var nb NaiveBayes
	if err := nb.Train(corpus()); err != nil {
		t.Fatal(err)
	}
	dist := nb.Distribution([]string{"goal", "borsa"})
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestNaiveBayesUnknownWordsFallBackToPrior(t *testing.T) {
	var nb NaiveBayes
	docs := corpus()
	// Make sport twice as frequent as the rest.
	docs = append(docs, docs[0], docs[1], docs[2])
	if err := nb.Train(docs); err != nil {
		t.Fatal(err)
	}
	got, _, ok := nb.Classify([]string{"zzz", "qqq"})
	if !ok || got != "sport" {
		t.Fatalf("prior fallback = %q, want sport", got)
	}
}

func TestNaiveBayesEvaluate(t *testing.T) {
	var nb NaiveBayes
	docs := corpus()
	if err := nb.Train(docs); err != nil {
		t.Fatal(err)
	}
	acc, confusion := nb.Evaluate(docs)
	if acc < 0.99 {
		t.Fatalf("training accuracy = %v", acc)
	}
	if confusion["sport"]["sport"] != 3 {
		t.Fatalf("confusion = %v", confusion)
	}
	acc, _ = nb.Evaluate(nil)
	if acc != 0 {
		t.Fatalf("empty evaluate accuracy = %v", acc)
	}
}

func TestNaiveBayesRetrainReplacesState(t *testing.T) {
	var nb NaiveBayes
	if err := nb.Train(corpus()); err != nil {
		t.Fatal(err)
	}
	fresh := []Document{{Tokens: []string{"meteo", "pioggia"}, Category: "weather"}}
	if err := nb.Train(fresh); err != nil {
		t.Fatal(err)
	}
	if got := nb.categories; len(got) != 1 || got[0] != "weather" {
		t.Fatalf("Categories after retrain = %v", got)
	}
}

func TestNaiveBayesManyCategoriesSyntheticAccuracy(t *testing.T) {
	// 10 categories with disjoint vocabularies and shared noise: held-out
	// accuracy should be near-perfect at this separation.
	rng := rand.New(rand.NewSource(42))
	var cats []string
	vocab := make(map[string][]string)
	for c := 0; c < 10; c++ {
		cat := string(rune('a'+c)) + "cat"
		cats = append(cats, cat)
		for w := 0; w < 20; w++ {
			vocab[cat] = append(vocab[cat], cat+"w"+string(rune('a'+w)))
		}
	}
	gen := func(n int) []Document {
		var docs []Document
		for i := 0; i < n; i++ {
			cat := cats[rng.Intn(len(cats))]
			var tokens []string
			for j := 0; j < 30; j++ {
				if rng.Float64() < 0.3 {
					tokens = append(tokens, "noise"+string(rune('a'+rng.Intn(5))))
				} else {
					tokens = append(tokens, vocab[cat][rng.Intn(len(vocab[cat]))])
				}
			}
			docs = append(docs, Document{Tokens: tokens, Category: cat})
		}
		return docs
	}
	var nb NaiveBayes
	if err := nb.Train(gen(300)); err != nil {
		t.Fatal(err)
	}
	acc, _ := nb.Evaluate(gen(200))
	if acc < 0.95 {
		t.Fatalf("held-out accuracy = %v, want ≥0.95", acc)
	}
}

func BenchmarkClassify(b *testing.B) {
	var nb NaiveBayes
	if err := nb.Train(corpus()); err != nil {
		b.Fatal(err)
	}
	tokens := []string{"goal", "partita", "borsa", "prosecco", "calcio", "vino"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Classify(tokens)
	}
}
