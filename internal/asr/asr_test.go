package asr

import (
	"math"
	"strings"
	"testing"
)

func words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "parola" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-0.1, DefaultErrorProfile(), nil, 1); err == nil {
		t.Fatal("negative WER accepted")
	}
	if _, err := New(1.0, DefaultErrorProfile(), nil, 1); err == nil {
		t.Fatal("WER=1 accepted")
	}
	if _, err := New(0.2, ErrorProfile{Substitution: 0.5, Deletion: 0.1, Insertion: 0.1}, nil, 1); err == nil {
		t.Fatal("profile not summing to 1 accepted")
	}
	if _, err := New(0.2, ErrorProfile{Substitution: 1.5, Deletion: -0.5, Insertion: 0}, nil, 1); err == nil {
		t.Fatal("negative fraction accepted")
	}
	r, err := New(0.2, DefaultErrorProfile(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.wer != 0.2 {
		t.Fatalf("wer = %v", r.wer)
	}
}

func TestZeroWERIsIdentity(t *testing.T) {
	r, err := New(0, DefaultErrorProfile(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := words(200)
	got := r.Transcribe(truth)
	if strings.Join(got, " ") != strings.Join(truth, " ") {
		t.Fatal("WER=0 must be lossless")
	}
}

func TestMeasuredWERTracksConfigured(t *testing.T) {
	truth := words(5000)
	for _, wer := range []float64{0.1, 0.25, 0.4} {
		r, err := New(wer, DefaultErrorProfile(), []string{"rumore", "errore", "x"}, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Transcribe(truth)
		measured := MeasureWER(truth, got)
		if math.Abs(measured-wer) > 0.05 {
			t.Fatalf("configured WER %v, measured %v", wer, measured)
		}
	}
}

func TestTranscribeDeterministicPerSeed(t *testing.T) {
	truth := words(100)
	r1, _ := New(0.3, DefaultErrorProfile(), nil, 42)
	r2, _ := New(0.3, DefaultErrorProfile(), nil, 42)
	a := strings.Join(r1.Transcribe(truth), " ")
	b := strings.Join(r2.Transcribe(truth), " ")
	if a != b {
		t.Fatal("same seed must give same transcription")
	}
}

func TestSubstitutionsUseVocabulary(t *testing.T) {
	truth := words(2000)
	vocab := []string{"solo", "queste", "parole"}
	r, _ := New(0.5, ErrorProfile{Substitution: 1, Deletion: 0, Insertion: 0}, vocab, 3)
	got := r.Transcribe(truth)
	if len(got) != len(truth) {
		t.Fatalf("substitution-only channel changed length: %d vs %d", len(got), len(truth))
	}
	inVocab := map[string]bool{"solo": true, "queste": true, "parole": true}
	subs := 0
	for i := range got {
		if got[i] != truth[i] {
			subs++
			if !inVocab[got[i]] {
				t.Fatalf("substitution %q not from vocabulary", got[i])
			}
		}
	}
	if subs == 0 {
		t.Fatal("no substitutions happened at WER 0.5")
	}
}

func TestDeletionOnlyShrinks(t *testing.T) {
	truth := words(2000)
	r, _ := New(0.3, ErrorProfile{Substitution: 0, Deletion: 1, Insertion: 0}, nil, 3)
	got := r.Transcribe(truth)
	if len(got) >= len(truth) {
		t.Fatalf("deletion-only channel did not shrink: %d vs %d", len(got), len(truth))
	}
	// Remaining words must be a subsequence of the truth.
	j := 0
	for _, w := range got {
		for j < len(truth) && truth[j] != w {
			j++
		}
		if j == len(truth) {
			t.Fatal("output is not a subsequence under deletion-only errors")
		}
		j++
	}
}

func TestInsertionOnlyGrows(t *testing.T) {
	truth := words(2000)
	r, _ := New(0.3, ErrorProfile{Substitution: 0, Deletion: 0, Insertion: 1}, []string{"eh"}, 3)
	got := r.Transcribe(truth)
	if len(got) <= len(truth) {
		t.Fatalf("insertion-only channel did not grow: %d vs %d", len(got), len(truth))
	}
}

func TestMangledFallbackWithoutVocabulary(t *testing.T) {
	truth := []string{"ciao"}
	r, _ := New(0.99, ErrorProfile{Substitution: 1, Deletion: 0, Insertion: 0}, nil, 1)
	// With WER .99 the single word is almost surely substituted; run a few
	// times to see the mangled form.
	sawMangled := false
	for i := 0; i < 50; i++ {
		got := r.Transcribe(truth)
		if len(got) == 1 && got[0] == "ciaox" {
			sawMangled = true
			break
		}
	}
	if !sawMangled {
		t.Fatal("expected mangled fallback word")
	}
}

func TestTranscribeText(t *testing.T) {
	r, _ := New(0, DefaultErrorProfile(), nil, 1)
	if got := r.TranscribeText("buon giorno a tutti"); got != "buon giorno a tutti" {
		t.Fatalf("TranscribeText = %q", got)
	}
}

func TestMeasureWER(t *testing.T) {
	cases := []struct {
		truth, hyp string
		want       float64
	}{
		{"a b c", "a b c", 0},
		{"a b c", "a x c", 1.0 / 3},
		{"a b c", "a c", 1.0 / 3},
		{"a b c", "a b b c", 1.0 / 3},
		{"a b c", "", 1},
		{"", "", 0},
		{"", "x", 1},
	}
	for _, c := range cases {
		got := MeasureWER(strings.Fields(c.truth), strings.Fields(c.hyp))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("MeasureWER(%q,%q) = %v, want %v", c.truth, c.hyp, got, c.want)
		}
	}
}

func BenchmarkTranscribe(b *testing.B) {
	truth := words(500)
	r, _ := New(0.2, DefaultErrorProfile(), []string{"a", "b", "c"}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Transcribe(truth)
	}
}

// TestTranscribeConcurrent: concurrent ingests share one Recognizer, so
// under -race two goroutines transcribing at once must not race on its
// random source.
func TestTranscribeConcurrent(t *testing.T) {
	r, err := New(0.3, DefaultErrorProfile(), []string{"rumore"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	truth := words(200)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Transcribe(truth)
	}()
	r.Transcribe(truth)
	<-done
}
