package osnhttp

import (
	"html/template"
	"strings"

	"hsprofiler/internal/osn"
)

// The reference renderer: the html/template pages the HTML wire served
// before its pages were written with the append encoder, kept verbatim.
// Tests render the same view values through these templates and through
// the server's writers and require identical bytes, so the templates'
// contextual escaping stays the specification of the HTML wire.

var refSchoolsTmpl = template.Must(template.New("schools").Parse(`<html><body>
<ul id="schools">
{{range .}}<li class="school" data-id="{{.ID}}"><span class="schoolname">{{.Name}}</span> <span class="schoolcity">{{.City}}</span></li>
{{end}}</ul>
</body></html>`))

var refSearchTmpl = template.Must(template.New("search").Parse(`<html><body>
<div id="results">
{{range .Results}}<div class="result" data-id="{{.ID}}"><span class="name">{{.Name}}</span></div>
{{end}}</div>
{{if .More}}<a class="next" href="{{.NextURL}}">See more results</a>{{end}}
</body></html>`))

var refProfileTmpl = template.Must(template.New("profile").Parse(`<html><body>
<div id="profile" data-id="{{.ID}}">
<h1 class="name">{{.Name}}</h1>
{{if .HasPhoto}}<img class="photo" src="/photo/{{.ID}}.jpg">{{end}}
{{if .Gender}}<span class="gender">{{.Gender}}</span>{{end}}
{{if .Network}}<span class="network">{{.Network}}</span>{{end}}
{{if .HighSchool}}<div class="education"><span class="school">{{.HighSchool}}</span> <span class="gradyear">Class of {{.GradYear}}</span></div>{{end}}
{{if .GradSchool}}<div class="gradschool">Graduate school</div>{{end}}
{{if .Relationship}}<span class="relationship">In a relationship</span>{{end}}
{{if .InterestedIn}}<span class="interested">Interested in</span>{{end}}
{{if .Birthday}}<span class="birthday">{{.Birthday}}</span>{{end}}
{{if .Hometown}}<span class="hometown">{{.Hometown}}</span>{{end}}
{{if .CurrentCity}}<span class="currentcity">{{.CurrentCity}}</span>{{end}}
{{if .FriendListVisible}}<a class="friendlink" href="/friends/{{.ID}}">Friends</a>{{end}}
{{if .PhotoCount}}<span class="photocount">{{.PhotoCount}}</span>{{end}}
{{if .ContactInfo}}<span class="contact">Contact info</span>{{end}}
{{if .CanMessage}}<a class="message" href="/message/{{.ID}}">Message</a>{{end}}
{{if .Searchable}}<meta class="searchable" content="1">{{end}}
</div>
</body></html>`))

var refFriendsTmpl = template.Must(template.New("friends").Parse(`<html><body>
<ul id="friends">
{{range .Friends}}<li class="friend" data-id="{{.ID}}"><span class="name">{{.Name}}</span></li>
{{end}}</ul>
{{if .More}}<a class="next" href="{{.NextURL}}">More friends</a>{{end}}
</body></html>`))

func refExec(t *template.Template, data any) string {
	var b strings.Builder
	if err := t.Execute(&b, data); err != nil {
		panic(err)
	}
	return b.String()
}

func refSchools(schools []osn.SchoolRef) string { return refExec(refSchoolsTmpl, schools) }

// refSearch renders a result page; nextURL is the next link exactly as the
// handler built it, before any template escaping.
func refSearch(results []osn.SearchResult, more bool, nextURL string) string {
	return refExec(refSearchTmpl, map[string]any{"Results": results, "More": more, "NextURL": nextURL})
}

func refProfile(pp *osn.PublicProfile) string { return refExec(refProfileTmpl, pp) }

func refFriends(friends []osn.FriendRef, more bool, nextURL string) string {
	return refExec(refFriendsTmpl, map[string]any{"Friends": friends, "More": more, "NextURL": nextURL})
}
