package textclass

import (
	"errors"
	"math"
	"sort"
)

// Document is one labeled training example.
type Document struct {
	Tokens   []string
	Category string
}

// NaiveBayes is a multinomial naive Bayes text classifier with Laplace
// (add-one) smoothing, the model family the paper names for classifying
// ASR transcripts of news programs. Train it once; classification is
// safe for concurrent use afterwards.
type NaiveBayes struct {
	categories []string
	// logPrior[c] = log P(category c)
	logPrior map[string]float64
	// wordCount[c][w] = count of w in documents of c
	wordCount map[string]map[string]int
	// totalWords[c] = Σ_w wordCount[c][w]
	totalWords map[string]int
	vocab      map[string]bool
}

// ErrNoTrainingData is returned by Train on an empty corpus.
var ErrNoTrainingData = errors.New("textclass: no training data")

// Train fits the classifier on the corpus, replacing any previous state.
func (nb *NaiveBayes) Train(docs []Document) error {
	if len(docs) == 0 {
		return ErrNoTrainingData
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

// Score is a category with its (unnormalized) log-posterior.
type Score struct {
	Category string
	LogProb  float64
}

// Scores returns the log-posterior of every category for the token
// sequence, descending. It returns nil before training.
func (nb *NaiveBayes) Scores(tokens []string) []Score {
	if len(nb.categories) == 0 {
		return nil
	}
	v := float64(len(nb.vocab))
	out := make([]Score, 0, len(nb.categories))
	for _, c := range nb.categories {
		lp := nb.logPrior[c]
		wc := nb.wordCount[c]
		denom := float64(nb.totalWords[c]) + v
		for _, w := range tokens {
			if !nb.vocab[w] {
				continue // unseen words carry no signal for any class
			}
			lp += math.Log((float64(wc[w]) + 1) / denom)
		}
		out = append(out, Score{Category: c, LogProb: lp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LogProb != out[j].LogProb {
			return out[i].LogProb > out[j].LogProb
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// Classify returns the most probable category for the token sequence and
// the posterior probability mass it captures (softmax over categories).
// ok is false before training.
func (nb *NaiveBayes) Classify(tokens []string) (category string, confidence float64, ok bool) {
	scores := nb.Scores(tokens)
	if len(scores) == 0 {
		return "", 0, false
	}
	// Softmax in a numerically safe way relative to the max.
	max := scores[0].LogProb
	var total float64
	for _, s := range scores {
		total += math.Exp(s.LogProb - max)
	}
	return scores[0].Category, 1 / total, true
}

// Distribution returns the normalized posterior over categories as a map.
// It returns nil before training.
func (nb *NaiveBayes) Distribution(tokens []string) map[string]float64 {
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

// Evaluate classifies every document and returns overall accuracy plus a
// confusion matrix confusion[truth][predicted] = count.
func (nb *NaiveBayes) Evaluate(docs []Document) (accuracy float64, confusion map[string]map[string]int) {
	confusion = make(map[string]map[string]int)
	correct := 0
	for _, d := range docs {
		pred, _, ok := nb.Classify(d.Tokens)
		if !ok {
			continue
		}
		row := confusion[d.Category]
		if row == nil {
			row = make(map[string]int)
			confusion[d.Category] = row
		}
		row[pred]++
		if pred == d.Category {
			correct++
		}
	}
	if len(docs) == 0 {
		return 0, confusion
	}
	return float64(correct) / float64(len(docs)), confusion
}
