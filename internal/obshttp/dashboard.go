package obshttp

// watchDashboardHTML is the dependency-free auto-refreshing dashboard
// served at /debug/watch/ui. It polls /debug/watch and renders state
// chips, windowed quantiles, burn-rate alerts, and inline SVG
// availability/latency sparklines per target. Colors follow the
// validated reference palette (series: blue/orange; status colors carry
// a text label so state is never color-alone); dark mode is stepped for
// the dark surface, not inverted.
const watchDashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>encdns watchtower</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb; --surface-2: #f0efec;
    --text-primary: #0b0b0b; --text-secondary: #52514e;
    --grid: #e3e2de;
    --series-1: #2a78d6; --series-2: #eb6834;
    --status-good: #008300; --status-warn: #eda100; --status-serious: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19; --surface-2: #383835;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --grid: #44443f;
      --series-1: #3987e5; --series-2: #d95926;
      --status-good: #3fae56; --status-warn: #c98500; --status-serious: #e66767;
    }
  }
  body.viz-root {
    margin: 0; padding: 1.25rem 1.5rem; background: var(--surface-1);
    color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 1.1rem; margin: 0 0 .25rem; font-weight: 600; }
  .sub { color: var(--text-secondary); font-size: .8rem; margin-bottom: 1rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .4rem .7rem .4rem 0; vertical-align: middle; }
  th { color: var(--text-secondary); font-weight: 500; font-size: .75rem;
       border-bottom: 1px solid var(--grid); }
  td { border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }
  td.num, th.num { text-align: right; }
  .chip { display: inline-flex; align-items: center; gap: .35rem;
          font-size: .78rem; color: var(--text-primary); }
  .dot { width: 8px; height: 8px; border-radius: 50%; display: inline-block; }
  .alert { color: var(--status-serious); font-size: .78rem; }
  .quiet { color: var(--text-secondary); }
  .err { color: var(--text-secondary); font-size: .75rem; }
  svg { display: block; }
</style>
</head>
<body class="viz-root">
<h1>encdns watchtower</h1>
<div class="sub" id="sub">loading&hellip;</div>
<table id="tbl">
  <thead><tr>
    <th>Resolver</th><th>State</th>
    <th class="num">Avail %</th><th class="num">p50 ms</th>
    <th class="num">p95 ms</th><th class="num">p99 ms</th>
    <th>Availability</th><th>p95 RTT</th><th>Alerts</th><th>Errors</th>
  </tr></thead>
  <tbody></tbody>
</table>
<script>
const W = 150, H = 30;
const STATUS = {healthy: "--status-good", degraded: "--status-warn", down: "--status-serious"};

function cssVar(name) {
  return getComputedStyle(document.body).getPropertyValue(name).trim();
}
function esc(s) {
  return String(s).replace(/[&<>"]/g, c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
}
// Availability per interval as thin baseline-anchored bars (magnitude →
// bar form); a 1px gap stands in for the 2px spacer at sparkline scale.
function availSVG(series, color) {
  if (!series.length) return "";
  const bw = Math.max(1, Math.floor(W / series.length) - 1);
  let bars = "";
  series.forEach((p, i) => {
    const a = p.total ? (p.total - p.failures) / p.total : null;
    if (a === null) return;
    const h = Math.max(1, Math.round(a * (H - 2)));
    bars += '<rect x="' + i * (bw + 1) + '" y="' + (H - h) + '" width="' + bw +
            '" height="' + h + '" rx="1" fill="' + color + '"' +
            (p.failures ? ' opacity="0.45"' : '') + '/>';
  });
  return '<svg width="' + W + '" height="' + H + '" role="img" aria-label="availability per interval">' + bars + "</svg>";
}
// p95 per interval as a 2px line over a shared scale.
function rttSVG(series, color) {
  const pts = series.map((p, i) => [i, p.total - p.failures > 0 ? p.p95_ms : null]);
  const max = Math.max(1, ...pts.map(p => p[1] ?? 0));
  const step = series.length > 1 ? W / (series.length - 1) : 0;
  let d = "", pen = false;
  pts.forEach(([i, v]) => {
    if (v === null) { pen = false; return; }
    const x = (i * step).toFixed(1), y = (H - 2 - (v / max) * (H - 4)).toFixed(1);
    d += (pen ? " L" : " M") + x + " " + y;
    pen = true;
  });
  return '<svg width="' + W + '" height="' + H + '" role="img" aria-label="p95 RTT per interval">' +
         '<path d="' + d.trim() + '" fill="none" stroke="' + color + '" stroke-width="2" stroke-linejoin="round"/></svg>';
}
function render(rep) {
  document.getElementById("sub").textContent =
    rep.targets.length + " targets · window " + rep.window_secs + "s · bucket " +
    rep.interval_secs + "s · " + rep.now + " · auto-refresh 2s";
  const body = document.querySelector("#tbl tbody");
  const blue = cssVar("--series-1"), orange = cssVar("--series-2");
  body.innerHTML = rep.targets.map(t => {
    const sc = cssVar(STATUS[t.state] || "--status-warn");
    const firing = (t.alerts || []).filter(a => a.firing);
    const alerts = firing.length
      ? firing.map(a => '<span class="alert">&#9650; ' + esc(a.window) + " burn " +
          a.burn_short.toFixed(1) + "/" + a.burn_long.toFixed(1) + "</span>").join("<br>")
      : '<span class="quiet">none</span>';
    const errs = Object.entries(t.errors || {}).map(([k, v]) => esc(k) + " " + v).join(", ");
    const ms = v => t.samples > t.failures ? v.toFixed(1) : "&ndash;";
    return "<tr><td>" + esc(t.target) + "</td>" +
      '<td><span class="chip"><span class="dot" style="background:' + sc + '"></span>' + esc(t.state) + "</span></td>" +
      '<td class="num">' + (100 * t.availability).toFixed(1) + "</td>" +
      '<td class="num">' + ms(t.p50_ms) + "</td>" +
      '<td class="num">' + ms(t.p95_ms) + "</td>" +
      '<td class="num">' + ms(t.p99_ms) + "</td>" +
      "<td>" + availSVG(t.series || [], blue) + "</td>" +
      "<td>" + rttSVG(t.series || [], orange) + "</td>" +
      "<td>" + alerts + "</td>" +
      '<td class="err">' + errs + "</td></tr>";
  }).join("");
}
async function tick() {
  try {
    const resp = await fetch("/debug/watch", {cache: "no-store"});
    render(await resp.json());
  } catch (err) {
    document.getElementById("sub").textContent = "fetch failed: " + err;
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
