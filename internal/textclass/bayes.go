package textclass

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
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
//
// Train computes every (word, category) log-likelihood once and keeps
// only those: Scores looks a token up once and adds one term per
// category. Most words occur in few categories, so a word keeps the
// terms of the categories it occurs in, and a category it never occurs
// in adds that category's unseen term.
type NaiveBayes struct {
	categories []string  // sorted
	logPrior   []float64 // by category: log P(c)
	// unseen[c] = log(1 / (words in c + |V|)), the term of a word c
	// never saw.
	unseen []float64
	words  map[string]span // the vocabulary: each word's terms in seen
	// seen holds, word after word, the categories each word occurs in,
	// ascending, with log((count of the word in c + 1) / (words in c + |V|)).
	seen []term
}

// span is where a word's terms are in NaiveBayes.seen.
type span struct{ off, n int32 }

// term is a category a word occurs in and the word's log-likelihood
// under it.
type term struct {
	cat    int32
	logLik float64
}

// ErrNoTrainingData is returned by Train on an empty corpus.
var ErrNoTrainingData = errors.New("textclass: no training data")

// Train fits the classifier on the corpus, replacing any previous state.
func (nb *NaiveBayes) Train(docs []Document) error {
	if len(docs) == 0 {
		return ErrNoTrainingData
	}
	catDocs := make(map[string]int)
	for _, d := range docs {
		catDocs[d.Category]++
	}
	nb.categories = nb.categories[:0]
	for c := range catDocs {
		nb.categories = append(nb.categories, c)
	}
	sort.Strings(nb.categories)
	nc := len(nb.categories)
	catIndex := make(map[string]int32, nc)
	nb.logPrior = make([]float64, nc)
	for j, c := range nb.categories {
		catIndex[c] = int32(j)
		nb.logPrior[j] = math.Log(float64(catDocs[c]) / float64(len(docs)))
	}
	// counts[i] is how often word i occurs in each category it occurs
	// in; words maps a word to its i until the spans replace it.
	words := make(map[string]span)
	var counts [][]catCount
	totalWords := make([]int, nc)
	for _, d := range docs {
		j := catIndex[d.Category]
		for _, w := range d.Tokens {
			sp, ok := words[w]
			if !ok {
				// A token is a piece of its document: the clone
				// keeps the word and not the transcript.
				sp.off = int32(len(counts))
				words[strings.Clone(w)] = sp
				counts = append(counts, nil)
			}
			counts[sp.off] = countIn(counts[sp.off], j)
			totalWords[j]++
		}
	}
	v := float64(len(words))
	nb.unseen = make([]float64, nc)
	for j := range nb.unseen {
		nb.unseen[j] = math.Log((0 + 1) / (float64(totalWords[j]) + v))
	}
	n := 0
	for _, c := range counts {
		n += len(c)
	}
	nb.seen = make([]term, 0, n)
	spans := make([]span, len(counts))
	for i, c := range counts {
		slices.SortFunc(c, func(a, b catCount) int { return cmp.Compare(a.cat, b.cat) })
		spans[i] = span{int32(len(nb.seen)), int32(len(c))}
		for _, k := range c {
			nb.seen = append(nb.seen, term{k.cat, math.Log((float64(k.n) + 1) / (float64(totalWords[k.cat]) + v))})
		}
	}
	for w, sp := range words {
		words[w] = spans[sp.off]
	}
	nb.words = words
	return nil
}

// catCount is how often a word occurs in one category's documents.
type catCount struct {
	cat int32
	n   int
}

// countIn adds one occurrence in category cat to a word's counts.
func countIn(counts []catCount, cat int32) []catCount {
	for k := range counts {
		if counts[k].cat == cat {
			counts[k].n++
			return counts
		}
	}
	return append(counts, catCount{cat, 1})
}

// Score is a category with its (unnormalized) log-posterior.
type Score struct {
	Category string
	LogProb  float64
}

// Scores returns the log-posterior of every category for the token
// sequence, descending. It returns nil before training.
//
// A category's score is its log prior plus, for each token in order,
// the token's log-likelihood under it (the package doc says why these
// are the bits of a per-token math.Log sum). A token outside the
// training vocabulary adds nothing to any category.
func (nb *NaiveBayes) Scores(tokens []string) []Score {
	nc := len(nb.categories)
	if nc == 0 {
		return nil
	}
	out := make([]Score, nc)
	for j, c := range nb.categories {
		out[j] = Score{Category: c, LogProb: nb.logPrior[j]}
	}
	for _, w := range tokens {
		sp, ok := nb.words[w]
		if !ok {
			continue // unseen words carry no signal for any class
		}
		seen := nb.seen[sp.off : sp.off+sp.n]
		for j := range out {
			l := nb.unseen[j]
			if len(seen) > 0 && int(seen[0].cat) == j {
				l = seen[0].logLik
				seen = seen[1:]
			}
			out[j].LogProb += l
		}
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
