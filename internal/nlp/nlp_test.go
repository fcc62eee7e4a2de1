package nlp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitSentencesBasic(t *testing.T) {
	text := "DJI announced a new drone. The company is based in Shenzhen. Analysts were surprised!"
	got := SplitSentences(text)
	if len(got) != 3 {
		t.Fatalf("got %d sentences %q, want 3", len(got), got)
	}
	if got[0] != "DJI announced a new drone." {
		t.Errorf("first sentence = %q", got[0])
	}
}

func TestSplitSentencesAbbreviations(t *testing.T) {
	cases := []struct {
		text string
		want int
	}{
		{"Parrot Inc. acquired the startup. The deal closed.", 2},
		{"Mr. Smith leads the firm. He joined in 2014.", 2},
		{"Revenue rose 3.5 percent in Q2. Shares jumped.", 2},
		{"The U.S. regulator approved the license. Flights resumed.", 2},
		{"J. Doe founded Windermere.", 1},
	}
	for _, c := range cases {
		got := SplitSentences(c.text)
		if len(got) != c.want {
			t.Errorf("SplitSentences(%q) = %d sentences %q, want %d", c.text, len(got), got, c.want)
		}
	}
}

func TestSplitSentencesNewlineBreaks(t *testing.T) {
	got := SplitSentences("Headline without period\nBody sentence one.")
	if len(got) != 2 {
		t.Fatalf("got %q, want 2 sentences", got)
	}
}

func TestTokenizeBasics(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"DJI announced a drone.", []string{"DJI", "announced", "a", "drone", "."}},
		{"DJI's Phantom", []string{"DJI", "'s", "Phantom"}},
		{"a $1.5 billion deal", []string{"a", "$", "1.5", "billion", "deal"}},
		{"drone-based delivery", []string{"drone-based", "delivery"}},
		{"Parrot Inc. won", []string{"Parrot", "Inc.", "won"}},
		{"the U.S. market", []string{"the", "U.S.", "market"}},
		{"Why, though?", []string{"Why", ",", "though", "?"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTagKnownPatterns(t *testing.T) {
	cases := []struct {
		sentence string
		word     string
		wantTag  string
	}{
		{"DJI acquired the startup", "acquired", "VBD"},
		{"DJI will acquire the startup", "acquire", "VB"},
		{"DJI has acquired the startup", "acquired", "VBN"},
		{"the startup was acquired by DJI", "acquired", "VBN"},
		{"DJI announced the launch", "launch", "NN"},
		{"DJI manufactures drones", "manufactures", "VBZ"},
		{"the leading company", "company", "NN"},
		{"DJI is based in Shenzhen", "Shenzhen", "NNP"},
		{"it plans to expand", "plans", "VBZ"},
		{"the deal closed quickly", "quickly", "RB"},
		{"three new drones", "three", "CD"},
		{"revenue rose 12 percent", "12", "CD"},
	}
	for _, c := range cases {
		toks := Tag(Tokenize(c.sentence))
		found := false
		for _, tok := range toks {
			if tok.Text == c.word {
				found = true
				if tok.Tag != c.wantTag {
					t.Errorf("%q: tag(%q) = %s, want %s (all: %v)", c.sentence, c.word, tok.Tag, c.wantTag, tagsOf(toks))
				}
			}
		}
		if !found {
			t.Errorf("%q: word %q not found in tokens %v", c.sentence, c.word, toks)
		}
	}
}

func tagsOf(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text + "/" + t.Tag
	}
	return out
}

func TestLemmaVerbs(t *testing.T) {
	cases := []struct{ word, tag, want string }{
		{"acquired", "VBD", "acquire"},
		{"acquires", "VBZ", "acquire"},
		{"acquiring", "VBG", "acquire"},
		{"bought", "VBD", "buy"},
		{"manufactures", "VBZ", "manufacture"},
		{"announced", "VBD", "announce"},
		{"planned", "VBD", "plan"},
		{"flies", "VBZ", "fly"},
		{"flew", "VBD", "fly"},
		{"launches", "VBZ", "launch"},
		{"testing", "VBG", "test"},
		{"running", "VBG", "run"},
	}
	for _, c := range cases {
		if got := Lemma(c.word, c.tag); got != c.want {
			t.Errorf("Lemma(%q,%s) = %q, want %q", c.word, c.tag, got, c.want)
		}
	}
}

func TestLemmaNouns(t *testing.T) {
	cases := []struct{ word, want string }{
		{"drones", "drone"},
		{"companies", "company"},
		{"agencies", "agency"},
		{"people", "person"},
		{"analyses", "analysis"},
		{"boxes", "box"},
		{"business", "business"},
		{"aircraft", "aircraft"},
	}
	for _, c := range cases {
		if got := Lemma(c.word, "NNS"); got != c.want {
			t.Errorf("Lemma(%q,NNS) = %q, want %q", c.word, got, c.want)
		}
	}
}

func TestChunkSimpleSVO(t *testing.T) {
	toks := Tag(Tokenize("The Chinese company acquired a small startup"))
	chunks := ChunkSentence(toks)
	var kinds []string
	for _, c := range chunks {
		kinds = append(kinds, c.Kind)
	}
	want := []string{"NP", "VP", "NP"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("chunk kinds = %v (%+v), want %v", kinds, chunks, want)
	}
	if got := chunks[0].Text(toks); got != "The Chinese company" {
		t.Errorf("NP1 = %q", got)
	}
	if got := chunks[2].Text(toks); got != "a small startup" {
		t.Errorf("NP2 = %q", got)
	}
	if chunks[1].Passive {
		t.Error("active VP marked passive")
	}
}

func TestChunkPassive(t *testing.T) {
	toks := Tag(Tokenize("The startup was acquired by DJI"))
	chunks := ChunkSentence(toks)
	foundPassive := false
	for _, c := range chunks {
		if c.Kind == "VP" && c.Passive {
			foundPassive = true
			if lemma := toks[c.Head].Lemma; lemma != "" && lemma != "acquire" {
				t.Errorf("passive head lemma = %q", lemma)
			}
		}
	}
	if !foundPassive {
		t.Fatalf("no passive VP found in %+v", chunks)
	}
}

func TestChunkPossessive(t *testing.T) {
	toks := Tag(Tokenize("DJI 's Phantom division expanded"))
	chunks := ChunkSentence(toks)
	if len(chunks) == 0 || chunks[0].Kind != "NP" {
		t.Fatalf("chunks = %+v", chunks)
	}
	if got := chunks[0].Text(toks); got != "DJI 's Phantom division" {
		t.Errorf("possessive NP = %q", got)
	}
}

func TestProcessEndToEnd(t *testing.T) {
	ss := Process("DJI acquired Aeros in 2015. The company makes drones.")
	if len(ss) != 2 {
		t.Fatalf("got %d sentences", len(ss))
	}
	if len(ss[0].Tokens) == 0 || ss[0].Tokens[0].Text != "DJI" {
		t.Fatalf("first token = %+v", ss[0].Tokens)
	}
	for _, s := range ss {
		for _, tok := range s.Tokens {
			if tok.Lemma == "" {
				t.Errorf("token %q has empty lemma", tok.Text)
			}
		}
	}
}

func TestContentWordsFiltersStopwords(t *testing.T) {
	ss := Process("The company is in the market.")
	words := ContentWords(ss[0])
	for _, w := range words {
		if IsStopword(w) {
			t.Errorf("stopword %q leaked into content words %v", w, words)
		}
	}
	if len(words) != 2 { // company, market
		t.Errorf("content words = %v, want [company market]", words)
	}
}

// Property: Process keeps every sentence SplitSentences finds, so the
// ingest stream can count sentences from the tagged ones.
func TestProcessKeepsEverySentenceQuick(t *testing.T) {
	alphabet := []rune("ab C. !?\n\t\u00a0\u2003'\")$1.5é\xff")
	f := func(idx []uint8) bool {
		var b strings.Builder
		for _, x := range idx {
			b.WriteRune(alphabet[int(x)%len(alphabet)])
		}
		return len(Process(b.String())) == len(SplitSentences(b.String()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenization never loses non-space characters for plain ASCII
// sentences built from a safe alphabet.
func TestTokenizePreservesLettersQuick(t *testing.T) {
	alphabet := []rune("abc DEF.gh, ij'k $1.5 x-y")
	f := func(idx []uint8) bool {
		var b strings.Builder
		for _, x := range idx {
			b.WriteRune(alphabet[int(x)%len(alphabet)])
		}
		in := b.String()
		joined := strings.Join(Tokenize(in), "")
		// Compare letter/digit multiset.
		count := func(s string) map[rune]int {
			m := map[rune]int{}
			for _, r := range s {
				if r != ' ' {
					m[r]++
				}
			}
			return m
		}
		return reflect.DeepEqual(count(in), count(joined))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every token gets a non-empty tag.
func TestTagTotalQuick(t *testing.T) {
	words := []string{"DJI", "acquired", "the", "startup", "quickly", "3.5", "$", ",", "drones", "will", "fly"}
	f := func(idx []uint8) bool {
		var ws []string
		for _, x := range idx {
			ws = append(ws, words[int(x)%len(words)])
		}
		for _, tok := range Tag(ws) {
			if tok.Tag == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcess(b *testing.B) {
	text := "DJI announced that it has acquired a small robotics startup for $75 million. " +
		"The Shenzhen-based company plans to expand its commercial drone business in the U.S. market. " +
		"Analysts said the deal was a signal of consolidation."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Process(text)
	}
}
