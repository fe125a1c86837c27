package repro.perfbench

/** Minimal JSON writer for the result line, the provenance record and spans. */
object Json {
  def render(v: Any): String = v match {
    case null | None      => "null"
    case Some(x)          => render(x)
    case s: String        => quote(s)
    case b: Boolean       => b.toString
    case d: Double        => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float         => render(f.toDouble)
    case n: Int           => n.toString
    case n: Long          => n.toString
    case m: Map[_, _]     => m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]  => xs.map(render).mkString("[", ", ", "]")
    case other            => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }
}
