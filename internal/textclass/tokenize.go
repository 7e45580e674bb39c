// Package textclass implements the text-analysis stage of the paper's
// clip data management component (§1.2): tokenization and a multinomial
// naive Bayes classifier that assigns speech transcripts to one of 30
// editorial categories ("spacing from art to culture, music, economics").
//
// NaiveBayes.Train computes each (word, category) log-likelihood
// log((count+1)/(words+|V|)) once: for the categories a word occurs in,
// a term of the word's own, and for the others the category's term for
// a count of 0. Scores starts each category at its log prior and, for
// each token in order, looks the token up once and adds one term to
// each category. So each category receives the same float64 terms in
// the same order as a sum of math.Log((count+1)/(words+|V|)) per token
// would add them, and the scores are those bits. A token the training
// corpus never saw adds nothing.
package textclass

import (
	"sort"
	"strings"
	"unicode"
)

// stopwords holds high-frequency Italian function words that carry no
// category signal. The real system's classifier was trained on Italian
// news; the synthetic corpus reuses a few of these for realism.
var stopwords = map[string]bool{
	"il": true, "lo": true, "la": true, "i": true, "gli": true, "le": true,
	"un": true, "uno": true, "una": true, "di": true, "a": true, "da": true,
	"in": true, "con": true, "su": true, "per": true, "tra": true, "fra": true,
	"e": true, "o": true, "ma": true, "se": true, "che": true, "non": true,
	"si": true, "del": true, "della": true, "dei": true, "delle": true,
	"al": true, "alla": true, "ai": true, "alle": true, "nel": true,
	"nella": true, "sul": true, "sulla": true, "questo": true, "questa": true,
	"come": true, "anche": true, "più": true, "ha": true, "è": true,
	"sono": true, "essere": true, "stato": true, "molto": true, "dopo": true,
}

// Tokenize lowercases the text, splits on any non-letter/digit rune and
// removes stopwords and single-rune fragments.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if len([]rune(f)) < 2 || stopwords[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Stopwords returns a copy of the stopword list in sorted order (sorted
// so that callers sampling from it stay deterministic).
func Stopwords() []string {
	out := make([]string, 0, len(stopwords))
	for w := range stopwords {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
